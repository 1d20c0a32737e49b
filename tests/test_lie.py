"""Lie kit: validation, PBW rewriting, pairings, contractions, CE."""

import json
import random
from fractions import Fraction as Q
from itertools import product

import pytest

from hochduflo.exact import (GradedMap, GradedVector, WindowOverflow,
                             derive_seed, random_vector)
from hochduflo import liealg
from hochduflo.liealg import (CeComplex, LieAlgebra, OddSym, DualOdd, SymPoly,
                              UgWindow, adjoint_action_ug, ce_differential,
                              ce_module_sym, ce_module_trivial, ce_module_ug,
                              cocontract, contract, invariants_basis,
                              pair_dual_vec, pair_vec_dual, pbw_map)
from hochduflo.duflo import quadratic_invariant

from oracles import (eager_ce_hom, old_cocontract, old_contract,
                     old_dual_differential, old_interior_product,
                     old_pair_dual_vec, old_pair_vec_dual, pbw_normal_oracle,
                     stacked_invariants_basis, sym_pair_oracle)


def test_validate_examples(sl2, abelian2):
    assert abelian2.validate().ok
    assert sl2.validate().ok
    bad = LieAlgebra(3, {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2},
                         (2, 1): {1: -2}}, "sl2broken")
    report = bad.validate()
    assert not report.ok
    assert report.jacobi_violations          # the violating triples are named


def test_semisimplicity_is_decided_by_the_killing_form(sl2, aff1, heis3,
                                                       abelian2):
    """Cartan's criterion, independent of the name: sl2 under another name
    and so(3) are semisimple; the solvable and abelian algebras are not."""
    renamed = LieAlgebra.from_dict(dict(sl2.to_dict(), name="mysl2"))
    assert sl2.is_semisimple() and renamed.is_semisimple()
    assert LieAlgebra.so3().is_semisimple()
    assert not any(g.is_semisimple() for g in (aff1, heis3, abelian2))


def test_pbw_multiply_examples(aff1, sl2):
    ug = UgWindow(aff1, 4)
    assert ug.mul(ug.unit(), GradedVector.basis(ug.space, (1, 1))) == \
        GradedVector.basis(ug.space, (1, 1))
    # e2 e1 = e1 e2 - e2 for [e1, e2] = e2
    got = ug.mul_keys((1,), (0,))
    assert got == GradedVector(ug.space, {(0, 1): 1, (1,): -1})
    # f e = ef - h for the order e < f < h
    ug2 = UgWindow(sl2, 4)
    assert ug2.mul_keys((1,), (0,)) == \
        GradedVector(ug2.space, {(0, 1): 1, (2,): -1})


def test_pbw_overflow_flagged(aff1):
    ug = UgWindow(aff1, 2)
    with pytest.raises(WindowOverflow):
        ug.mul_keys((0, 1), (0,))


def test_pbw_against_last_descent_oracle(sl2):
    ug = UgWindow(sl2, 5)
    rng = random.Random(4)
    for _ in range(25):
        word = tuple(rng.randrange(3) for _ in range(rng.randint(0, 5)))
        got = ug.normal_order(word)
        want = pbw_normal_oracle(sl2.bracket, word)
        assert dict(got.coeffs) == want


def test_pairings(aff1):
    assert pair_dual_vec((0,), (0,)) == 1           # <eps1, e1> = 1
    assert pair_vec_dual((0,), (0,)) == -1          # <e1, eps1> = -1
    assert pair_vec_dual((0, 1), (0, 1)) == -1      # frozen two-factor value
    # exhaustive permutation oracles over all letter tuples up to length 3
    # over 4 letters, unsorted and repeated letters included
    words = [w for n in range(4) for w in product(range(4), repeat=n)]
    vec_base = lambda i, j: Q(-1) if i == j else Q(0)
    dual_base = lambda i, j: Q(1) if i == j else Q(0)
    for xs in words:
        for ds in words:
            n, m = len(xs), len(ds)
            want = sym_pair_oracle(xs, ds, [-1] * n, [1] * m, vec_base)
            assert pair_vec_dual(xs, ds) == old_pair_vec_dual(xs, ds) == want
            want = sym_pair_oracle(ds, xs, [1] * m, [-1] * n, dual_base)
            assert pair_dual_vec(ds, xs) == old_pair_dual_vec(ds, xs) == want


def test_letter_removal_matches_the_stepwise_oracles():
    """contract, cocontract and the window tables ``OddSym.contract_key``
    and ``DualOdd.interior_key`` against the stepwise contractions and the
    subset enumeration: same coefficients, same key order, on every basis
    pair of abelian d = 1..5; the two contractions also on the sum of all
    basis vectors with distinct coefficients, and the interior product on
    every letter tuple up to length 3, unsorted and repeated."""
    def same(got, want):
        assert list(got.items()) == list(want.items())

    for d in range(1, 6):
        g = LieAlgebra.abelian(d)
        odd, dual = OddSym(g), DualOdd(g)
        odd_all = GradedVector(odd.space, {k: i + 1 for i, k in
                                           enumerate(odd.space.keys)})
        dual_all = GradedVector(dual.space, {k: i + 1 for i, k in
                                             enumerate(dual.space.keys)})
        for x_key in odd.space.keys:
            x = GradedVector.basis(odd.space, x_key)
            for b_key in dual.space.keys:
                f = GradedVector.basis(dual.space, b_key)
                same(contract(odd, x, b_key), old_contract(odd, x, b_key))
                same(odd.contract_key(x_key, b_key),
                     old_contract(odd, x, b_key))
                same(cocontract(dual, f, x_key),
                     old_cocontract(dual, f, x_key))
        for b_key in dual.space.keys:
            same(contract(odd, odd_all, b_key),
                 old_contract(odd, odd_all, b_key))
        for x_key in odd.space.keys:
            same(cocontract(dual, dual_all, x_key),
                 old_cocontract(dual, dual_all, x_key))
        letters = [w for n in range(4) for w in product(range(d), repeat=n)]
        for s_key in letters + [k for k in odd.space.keys if len(k) > 3]:
            for b_key in dual.space.keys:
                f = GradedVector.basis(dual.space, b_key)
                same(dual.interior_key(s_key, b_key),
                     old_interior_product(dual, odd, s_key, f))


def test_dual_differential_matches_the_pairing_oracle(aff1, sl2, heis3):
    """Column b of d_g reads the coefficient of b's partner in the bracket
    coderivation; the old pairing loop over every odd monomial agrees,
    column for column and key for key."""
    for g in (aff1, sl2, LieAlgebra.so3(), heis3):
        odd, dual = OddSym(g), DualOdd(g)
        got, want = dual.differential(odd), old_dual_differential(dual, odd)
        for b in dual.space.keys:
            assert list(got.column(b).items()) == \
                list(want.column(b).items())


def test_dual_basis_normalization(sl2):
    dual = DualOdd(sl2)
    odd = OddSym(sl2)
    for y in odd.space.keys:
        assert pair_dual_vec(dual.dual_key_of(y), y) == 1


def test_contractions(aff1):
    odd = OddSym(aff1)
    assert contract(odd, odd.unit(), (0,)).is_zero()      # 1 |_ xi = 0
    x = GradedVector.basis(odd.space, (0, 1))
    assert contract(odd, x, (1,)) == GradedVector.basis(odd.space, (0,), -1)


def test_contraction_module_axiom():
    for d in (2, 3, 4):
        g = LieAlgebra.abelian(d)
        odd, dual = OddSym(g), DualOdd(g)
        rng = random.Random(d)
        for _ in range(30):
            xdeg = -rng.randint(0, d)
            x = random_vector(odd.space, xdeg, rng.randint(0, 99))
            b1 = rng.choice(dual.space.keys)
            b2 = rng.choice(dual.space.keys)
            lhs = contract(odd, contract(odd, x, b1), b2)
            rhs = GradedVector.zero(odd.space)
            for bk, c in dual.mul_keys(b1, b2).items():
                rhs.add_inplace(contract(odd, x, bk), c)
            assert lhs == rhs


def test_contraction_pairing_compatibility(sl2):
    """<x |_ xi, eta> = <x, xi . eta> on random inputs."""
    odd, dual = OddSym(sl2), DualOdd(sl2)
    rng = random.Random(9)
    for _ in range(40):
        x = rng.choice(odd.space.keys)
        b1 = rng.choice(dual.space.keys)
        b2 = rng.choice(dual.space.keys)
        moved = contract(odd, GradedVector.basis(odd.space, x), b1)
        lhs = sum((c * pair_vec_dual(k, b2) for k, c in moved.items()), Q(0))
        rhs = sum((c * pair_vec_dual(x, bk)
                   for bk, c in dual.mul_keys(b1, b2).items()), Q(0))
        assert lhs == rhs


def test_ce_algebra_differential(aff1, sl2, abelian2):
    oddA, dualA = OddSym(abelian2), DualOdd(abelian2)
    assert dualA.differential(oddA).is_zero()
    odd, dual = OddSym(aff1), DualOdd(aff1)
    d_g = dual.differential(odd)
    assert d_g.column((0,)).is_zero()                      # d_g eps1 = 0
    # the recorded sign fixture for the other generator
    assert d_g.column((1,)) == GradedVector(dual.space, {(1, 0): -1})
    odd2, dual2 = OddSym(sl2), DualOdd(sl2)
    d_g2 = dual2.differential(odd2)
    assert d_g2.compose(d_g2).is_zero()


def test_bracket_coderivation_squares_iff_jacobi(sl2):
    odd = OddSym(sl2)
    assert odd.coderivation_bracket().compose(odd.coderivation_bracket()) \
        .is_zero()
    broken = LieAlgebra(3, {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2},
                            (2, 1): {1: -2}}, "broken")
    odd_b = OddSym(broken)
    assert not odd_b.coderivation_bracket().compose(
        odd_b.coderivation_bracket()).is_zero()


def test_ce_module_differential(sl2, abelian2):
    # abelian coefficients in the symmetric algebra: bracket and action die
    symA = SymPoly(abelian2, 3)
    modA = ce_module_sym(symA)
    oddA = OddSym(abelian2)
    f = GradedMap(oddA.space, symA.space, 1, columns={
        ((0,)): GradedVector.basis(symA.space, (0, 1))})
    f = GradedMap(oddA.space, symA.space, 1)
    f.set_column((0,), GradedVector.basis(symA.space, (0, 1)), check=False)
    assert ce_differential(oddA, modA, f).is_zero()

    # the quadratic invariant, seen as a constant cochain, is killed
    sym = SymPoly(sl2, 3)
    mod = ce_module_sym(sym)
    odd = OddSym(sl2)
    casimir = quadratic_invariant(sl2, sym)
    const = GradedMap(odd.space, sym.space, 0)
    const.set_column((), casimir, check=False)
    d_const = ce_differential(odd, mod, const)
    for y in odd.space.keys_of_degree(-1):
        assert d_const.column(y).is_zero()

    # d_CE squares to zero on random enveloping-valued cochains
    ug = UgWindow(sl2, 4)
    modu = ce_module_ug(ug)
    rng = random.Random(5)
    for trial in range(10):
        f = GradedMap(odd.space, ug.space, rng.choice((0, 1, 2)))
        for y in odd.space.keys:
            if len(y) != f.shift:
                continue
            vec = random_vector(ug.space, 0, derive_seed("ce", trial, y))
            f.set_column(y, GradedVector(
                ug.space, {k: c for k, c in vec.coeffs.items()
                           if len(k) <= 2}), check=False)
        dd = ce_differential(odd, modu, ce_differential(odd, modu, f))
        assert dd.is_zero()


def test_trivial_coefficients_match_dual_differential(sl2):
    odd, dual = OddSym(sl2), DualOdd(sl2)
    d_g = dual.differential(odd)
    triv = ce_module_trivial(sl2)
    for r in range(0, 3):
        f = GradedMap(odd.space, triv.space, r)
        rng = random.Random(r)
        for y in odd.space.keys:
            if len(y) == r:
                c = rng.randint(-3, 3)
                if c:
                    f.set_column(y, GradedVector.basis(
                        triv.space, ("1",), c), check=False)
        dce = ce_differential(odd, triv, f)
        fdual = GradedVector(dual.space, {
            dual.dual_key_of(y): col.coeff(("1",))
            for y, col in f.columns.items()})
        got = GradedVector(dual.space, {
            dual.dual_key_of(y): col.coeff(("1",))
            for y, col in dce.columns.items()})
        assert got == d_g(fdual)


def test_invariants(sl2, abelian2):
    symA = SymPoly(abelian2, 3)
    inv = invariants_basis(abelian2, ce_module_sym(symA), 0)
    assert len(inv) == symA.space.dim          # everything is invariant
    sym = SymPoly(sl2, 3)
    inv2 = invariants_basis(sl2, ce_module_sym(sym), 0)
    # the unit and the one quadratic invariant, the Casimir
    assert inv2 == [GradedVector.basis(sym.space, ()),
                    quadratic_invariant(sl2, sym)]
    ug = UgWindow(sl2, 2)
    centre = invariants_basis(sl2, ce_module_ug(ug), 0)
    assert len(centre) == 2                    # the unit and the Casimir


def oscillator():
    """[e1, e2] = e3, [e1, e3] = -e2, [e2, e3] = e4 with e4 central."""
    return LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {3: 1}},
                      "oscillator")


CE_ALGEBRAS = {"sl2": LieAlgebra.sl2, "so3": LieAlgebra.so3,
               "heisenberg3": LieAlgebra.heisenberg3, "aff1": LieAlgebra.aff1,
               "oscillator": oscillator}
CE_MODULES = {"trivial": lambda g, cap: ce_module_trivial(g),
              "sg": lambda g, cap: ce_module_sym(SymPoly(g, cap)),
              "ug": lambda g, cap: ce_module_ug(UgWindow(g, cap))}


@pytest.mark.parametrize("coeff", sorted(CE_MODULES))
@pytest.mark.parametrize("lie", sorted(CE_ALGEBRAS))
def test_ce_complex_matches_the_eager_window(lie, coeff):
    """The CE window's lazy differential equals the eager hom differential
    column for column, and its invariants are the kernel of the stacked
    action map vector for vector, in the same order."""
    g = CE_ALGEBRAS[lie]()
    assert g.validate().ok
    odd = OddSym(g)
    for cap in (3, 4):
        module = CE_MODULES[coeff](g, cap)
        ce = CeComplex(odd, module)
        hom, d = eager_ce_hom(odd, module, module.space.keys, ce.space.name)
        assert ce.space.keys == hom.keys and ce.space.degree == hom.degree
        assert ce.invariants() == stacked_invariants_basis(g, module, 0)
        for key in hom.keys:
            assert list(ce.d.column(key).items()) == \
                list(d.column(key).items()), (cap, key)
        assert list(ce.d.columns) == list(d.columns)


def test_ce_invariants_read_only_the_degree_zero_columns(monkeypatch, heis3):
    """Invariants read the columns ((), u) of d and no other, each once."""
    seen = []

    def counted(odd, module, f):
        seen.extend(f.columns)
        return ce_differential(odd, module, f)

    monkeypatch.setattr(liealg, "ce_differential", counted)
    module = ce_module_sym(SymPoly(heis3, 4))
    ce = CeComplex(OddSym(heis3), module)
    first = ce.invariants()
    assert ce.invariants() == first
    assert seen == [()] * module.space.dim
    part = CeComplex(ce.odd, module, [u for u in module.space.keys
                                      if len(u) <= 2])
    with pytest.raises(WindowOverflow):
        part.invariants()


def test_adjoint_action_is_commutator_in_interior(sl2):
    ug = UgWindow(sl2, 4)
    rng = random.Random(1)
    for _ in range(20):
        key = rng.choice([k for k in ug.space.keys if len(k) <= 3])
        i = rng.randrange(3)
        v = GradedVector.basis(ug.space, key)
        gen = GradedVector.basis(ug.space, (i,))
        assert adjoint_action_ug(ug, i, v) == \
            ug.mul(gen, v) - ug.mul(v, gen)


def test_json_round_trip_and_one_based_indices(tmp_path, sl2):
    doc = sl2.to_dict()
    assert all(entry["i"] >= 1 for entry in doc["brackets"])
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    back = LieAlgebra.from_json_file(path)
    assert back.table == sl2.table
    # antisymmetric completion: specifying [e2, e1] works too
    doc2 = {"name": "aff", "dimension": 2,
            "brackets": [{"i": 2, "j": 1, "coeffs": {"2": "-1"}}]}
    g = LieAlgebra.from_dict(doc2)
    assert g.bracket(0, 1) == {1: Q(1)}


def test_pbw_map_examples(sl2):
    sym = SymPoly(sl2, 3)
    ug = UgWindow(sl2, 3)
    x = GradedVector.basis(sym.space, (0,))
    assert pbw_map(sym, ug, x) == GradedVector.basis(ug.space, (0,))
    ef = GradedVector.basis(sym.space, (0, 1))
    assert pbw_map(sym, ug, ef) == \
        GradedVector(ug.space, {(0, 1): 1, (2,): Q(-1, 2)})


def test_pbw_is_module_map(sl2):
    """The symmetrization intertwines the adjoint actions."""
    sym = SymPoly(sl2, 3)
    ug = UgWindow(sl2, 3)
    rng = random.Random(2)
    for _ in range(15):
        key = rng.choice([k for k in sym.space.keys if len(k) <= 3])
        i = rng.randrange(3)
        v = GradedVector.basis(sym.space, key)
        lhs = pbw_map(sym, ug, sym.adjoint_action(i, v))
        rhs = adjoint_action_ug(ug, i, pbw_map(sym, ug, v))
        assert lhs == rhs
