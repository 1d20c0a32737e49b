"""Coalgebra kit: coproducts, coderivations, convolution, twisting cochains,
cogenerators, comodules, and the degree-shift embeddings."""

import random
from fractions import Fraction as Q

import pytest

from hochduflo.coalgebra import (ConvolutionAlgebra, SymCoalgebra,
                                 TensorCoalgebra, cogenerator_lift,
                                 comodule_morphism_defect, decalage_sign,
                                 pair_space, shifted_letter_space,
                                 twisted_tensor_differential)
from hochduflo.exact import (BasisSpace, GradedMap, GradedVector,
                             StructuralError, WindowOverflow, derive_seed,
                             random_vector)
from hochduflo.hochschild import (cup, dual_odd_algebra, gerstenhaber,
                                  multiplication_cochain, random_cochain)
from hochduflo.liealg import (LieAlgebra, OddSym, DualOdd, SymPoly,
                              UgWindow)
from hochduflo.keller import LieTriple
from hochduflo.signs import sgn

from oracles import (OldOddSym, OldSymPoly, _pbw_keys, convolution_on_hom,
                     dual_odd_items)


def odd_coalgebra(d, cap=None):
    return SymCoalgebra({i: -1 for i in range(d)}, cap or d, name="S%d" % d)


def test_sym_coproduct_examples():
    C = odd_coalgebra(2)
    unit = C.coproduct_key(())
    assert dict(unit.items()) == {((), ()): 1}
    single = C.coproduct_key((0,))
    assert dict(single.items()) == {((), (0,)): 1, ((0,), ()): 1}
    # the frozen two-factor expansion with its unshuffle signs
    both = C.coproduct_key((0, 1))
    assert dict(both.items()) == {
        ((), (0, 1)): 1, ((0,), (1,)): 1, ((1,), (0,)): -1, ((0, 1), ()): 1}


def test_sym_axioms_mixed_degrees():
    C = SymCoalgebra({0: -1, 1: 2, 2: 0}, 3, name="mixed")
    assert C.is_coassociative()
    assert C.is_cocommutative()
    assert C.counit_laws_hold()


def test_tensor_coproduct_examples():
    letters = BasisSpace("V", [((0,), -1), ((1,), 1)])
    T = TensorCoalgebra(letters, 2)
    assert dict(T.coproduct_key(()).items()) == {((), ()): 1}
    w = ((0,), (1,))
    got = dict(T.coproduct_key(w).items())
    assert got == {((), w): 1, (((0,),), ((1,),)): 1, (w, ()): 1}
    assert T.is_coassociative()


def test_coderivation_lift_zero_and_bracket(sl2):
    C = odd_coalgebra(3)
    zero_q = GradedMap(C.space, C.space, 1)
    assert C.coderivation_from({2: zero_q}).is_zero()
    # the bracket generator reproduces the printed coderivation
    q2 = GradedMap(C.space, C.space, 1)
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        col = GradedVector.zero(C.space)
        for k, c in sl2.bracket(a, b).items():
            col.add_term((k,), -c)          # x . y -> -[x, y] desuspended
        q2.set_column((a, b), col, check=False)
    lifted = C.coderivation_from({2: q2})
    odd = OddSym(sl2)
    for key in C.space.keys:
        want = odd.coderivation_bracket_key(key)
        got = lifted.column(key)
        assert dict(got.coeffs) == dict(want.coeffs)


# sl2 + aff1 is the smallest algebra here whose bracket coderivation has
# images of more than one key, so it is the one that sees their order
SYM_WINDOW_ALGEBRAS = {
    "aff1": LieAlgebra.aff1, "sl2": LieAlgebra.sl2, "so3": LieAlgebra.so3,
    "heisenberg3": LieAlgebra.heisenberg3,
    "sl2+aff1": lambda: LieAlgebra(5, {(2, 0): {0: 2}, (2, 1): {1: -2},
                                       (0, 1): {2: 1}, (3, 4): {4: 1}},
                                   "sl2+aff1")}


@pytest.mark.parametrize("name", sorted(SYM_WINDOW_ALGEBRAS))
def test_symmetric_windows_match_the_old_windows(name):
    """S(g[1]), S(g), Ug and the dual keys on ``SymCoalgebra`` and
    ``monomials`` against the windows liealg built itself: keys, degrees and
    names, products and refusals, the bracket coderivation and the unshuffle
    components (coefficients and key order), and the convolution on seeded
    maps into S(g) and Ug."""
    g = SYM_WINDOW_ALGEBRAS[name]()

    def terms(v):
        return list(v.coeffs.items())

    def product_or_refusal(window, k1, k2):
        try:
            return terms(window.mul_keys(k1, k2))
        except WindowOverflow as exc:
            return type(exc), str(exc)

    def spaces_agree(new, old):
        assert new.name == old.name
        assert new.keys == old.keys
        assert new.degree == old.degree

    odd, old_odd = OddSym(g), OldOddSym(g)
    spaces_agree(odd.space, old_odd.space)
    for k1 in odd.space.keys:
        assert terms(odd.coderivation_bracket_key(k1)) == \
            terms(old_odd.coderivation_bracket_key(k1))
        for j in range(len(k1) + 1):
            assert list(odd.coproduct_component(k1, j)) == \
                list(old_odd.coproduct_component(k1, j))
        for k2 in odd.space.keys:
            assert terms(odd.mul_keys(k1, k2)) == \
                terms(old_odd.mul_keys(k1, k2))
    assert DualOdd(g).space.keys == BasisSpace(
        "old", dual_odd_items(g)).keys
    for cap in (2, 4, 6) if g.dimension <= 3 else (2, 4):
        sym, old_sym = SymPoly(g, cap), OldSymPoly(g, cap)
        spaces_agree(sym.space, old_sym.space)
        assert UgWindow(g, cap).space.keys == tuple(_pbw_keys(g.dimension, cap))
        refused = 0
        for k1 in sym.space.keys:
            for k2 in sym.space.keys:
                got = product_or_refusal(sym, k1, k2)
                assert got == product_or_refusal(old_sym, k1, k2)
                refused += got[0] is WindowOverflow
        assert refused

    ug = UgWindow(g, 4)
    for target in (SymPoly(g, 4), ug):
        small = [k for k in target.space.keys if len(k) <= 1]

        def seeded(shift, seed):
            m = GradedMap(odd.space, target.space, shift)
            for y in odd.space.keys:
                vec = random_vector(target.space, 0, derive_seed(seed, y))
                m.set_column(y, GradedVector(target.space, {
                    k: c for k, c in vec.coeffs.items() if k in small}),
                    check=False)
            return m

        conv = ConvolutionAlgebra(odd, target)
        for t in range(3):
            f, f2 = seeded(t, "f%d" % t), seeded(t + 1, "g%d" % t)
            got = conv.convolve(f, f2)
            want = convolution_on_hom(odd, target.mul_keys, target.space,
                                      f, f2)
            assert [(y, terms(v)) for y, v in got.columns.items()] == \
                [(y, terms(v)) for y, v in want.columns.items()]
            assert got.columns


def test_coderivation_law(sl2):
    """Delta o Q = (Q (x) id + id (x) Q) o Delta on the window."""
    C = odd_coalgebra(3)
    q2 = GradedMap(C.space, C.space, 1)
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        col = GradedVector.zero(C.space)
        for k, c in sl2.bracket(a, b).items():
            col.add_term((k,), -c)
        q2.set_column((a, b), col, check=False)
    Qd = C.coderivation_from({2: q2})
    for key in C.space.keys:
        lhs = {}
        for ck, c in Qd.column(key).coeffs.items():
            for (k1, k2), c2 in C.coproduct_key(ck).coeffs.items():
                lhs[(k1, k2)] = lhs.get((k1, k2), Q(0)) + c * c2
        rhs = {}
        for (k1, k2), c in C.coproduct_key(key).coeffs.items():
            for ck, c2 in Qd.column(k1).coeffs.items():
                rhs[(ck, k2)] = rhs.get((ck, k2), Q(0)) + c * c2
            sign = sgn(C.space.degree[k1])
            for ck, c2 in Qd.column(k2).coeffs.items():
                rhs[(k1, ck)] = rhs.get((k1, ck), Q(0)) + sign * c * c2
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs


def test_coderivation_lift_on_tensor_words(aff1):
    """Lifting the differential alone spreads it across every slot."""
    dual, odd = DualOdd(aff1), OddSym(aff1)
    B = dual_odd_algebra(dual, odd)
    shifted = shifted_letter_space(B.space)
    T = TensorCoalgebra(shifted, 3)
    m1 = GradedMap(T.space, T.space, 1)
    for k in B.space.keys:
        col = GradedVector.zero(T.space)
        for t, c in B.d_key(k).items():
            col.add_term((t,), c)
        m1.set_column((k,), col, check=False)
    lifted = T.coderivation_from({1: m1})
    for word in T.space.keys:
        if len(word) != 2:
            continue
        expect = GradedVector.zero(T.space)
        a, b = word
        for t, c in B.d_key(a).items():
            expect.add_term((t, b), c)
        for t, c in B.d_key(b).items():
            expect.add_term((a, t), sgn(shifted.degree[a]) * c)
        assert lifted.column(word) == expect


def test_convolution_unit_and_pairing_identity(sl2):
    """unit * f = f, and the product of functionals is the pairing."""
    from hochduflo.liealg import pair_dual_vec
    g = sl2
    odd, dual = OddSym(g), DualOdd(g)
    C = odd
    k_space = BasisSpace("k", ((("1",), 0),))

    class Ground:
        space = k_space

        @staticmethod
        def mul_keys(a, b):
            return GradedVector.basis(k_space, ("1",))

        @staticmethod
        def unit():
            return GradedVector.basis(k_space, ("1",))

    conv = ConvolutionAlgebra(C, Ground(),
                              co_differential=odd.coderivation_bracket_key,
                              alg_differential=None)

    def functional(bkey):
        m = GradedMap(C.space, k_space, len(bkey))
        for y in odd.space.keys:
            c = pair_dual_vec(bkey, y)
            if c:
                m.set_column(y, GradedVector.basis(k_space, ("1",), c),
                             check=False)
        return m

    f = functional((0,))
    unit = conv.unit()
    assert conv.convolve(unit, f) == f
    assert conv.convolve(f, unit) == f
    # (eps1 * eps2)(x) = <eps1 . eps2, x>
    f1, f2 = functional((0,)), functional((1,))
    prod = conv.convolve(f1, f2)
    prod_key = dual.mul_keys((0,), (1,))
    for y in odd.space.keys:
        want = sum((c * pair_dual_vec(bk, y) for bk, c in prod_key.items()),
                   Q(0))
        assert prod.column(y).coeff(("1",)) == want


def test_convolution_derivation_and_associativity(aff1):
    from hochduflo.liealg import pair_dual_vec
    odd, dual = OddSym(aff1), DualOdd(aff1)
    B = dual_odd_algebra(dual, odd)
    C = odd
    conv = ConvolutionAlgebra(C, B,
                              co_differential=odd.coderivation_bracket_key,
                              alg_differential=B.d_key)
    rng = random.Random(0)

    def rand_map(shift, seed):
        m = GradedMap(C.space, B.space, shift)
        for y in odd.space.keys:
            vec = random_vector(B.space, -len(y) + shift,
                                derive_seed("cv", seed, y))
            m.set_column(y, vec, check=False)
        return m

    for seed in range(50):
        s1, s2 = rng.randint(0, 2), rng.randint(0, 2)
        f = rand_map(s1, seed)
        g2 = rand_map(s2, seed + 100)
        lhs = conv.differential(conv.convolve(f, g2))
        rhs = conv.convolve(conv.differential(f), g2) \
            + conv.convolve(f, conv.differential(g2)).scale(sgn(s1))
        assert lhs == rhs
        h = rand_map(rng.randint(0, 1), seed + 200)
        assert conv.convolve(conv.convolve(f, g2), h) == \
            conv.convolve(f, conv.convolve(g2, h))
        # the induced differential squares to zero
        assert conv.differential(conv.differential(f)).is_zero()


def _canonical_twisting_cochain(g, ug, odd):
    """The degree-one map landing generators in the enveloping window."""
    C = odd
    tau = GradedMap(C.space, ug.space, 1)
    for i in range(g.dimension):
        tau.set_column((i,), GradedVector.basis(ug.space, (i,), -1),
                       check=False)
    return C, tau


def test_twisting_cochain_and_twisted_tensor(sl2, abelian2):
    ug = UgWindow(sl2, 4)
    odd = OddSym(sl2)
    from hochduflo.hochschild import ug_algebra
    A = ug_algebra(ug)
    C, tau = _canonical_twisting_cochain(sl2, ug, odd)
    conv = ConvolutionAlgebra(C, A,
                              co_differential=odd.coderivation_bracket_key,
                              alg_differential=None)
    assert conv.mc_defect(tau).is_zero()
    # zero candidate: trivially a twisting cochain
    zero_tau = GradedMap(C.space, ug.space, 1)
    assert conv.mc_defect(zero_tau).is_zero()
    # abelian case: the defect of a generic degree-one map is its square
    ugA = UgWindow(abelian2, 4)
    oddA = OddSym(abelian2)
    AA = ug_algebra(ugA)
    CA = oddA
    convA = ConvolutionAlgebra(CA, AA,
                               co_differential=oddA.coderivation_bracket_key,
                               alg_differential=None)
    rng = random.Random(1)
    tau2 = GradedMap(CA.space, ugA.space, 1)
    for y in oddA.space.keys:
        vec = random_vector(ugA.space, 0, derive_seed("tau", y))
        if len(y) == 1:
            tau2.set_column(y, GradedVector(
                ugA.space, {k: c for k, c in vec.coeffs.items()
                            if len(k) <= 1}), check=False)
    defect = convA.mc_defect(tau2)
    square = convA.convolve(tau2, tau2)
    assert defect == square

    # the twisted tensor differential reproduces the bimodule differential
    triple = LieTriple(sl2, 4)
    keys = [k for k in triple.x_space.keys if len(k[0]) + len(k[1]) <= 4]
    carrier = BasisSpace("AxC", (((u, y), -len(y)) for (u, y) in keys))
    d_tau = twisted_tensor_differential(conv, tau, carrier)
    for key in carrier.keys:
        want = triple.X.d_key(key)
        got = d_tau.column(key)
        assert {k: c for k, c in got.coeffs.items()} == dict(want.coeffs)
    # square-zero on the window
    sub = [k for k in carrier.keys if len(k[0]) + len(k[1]) <= 3]
    for key in sub:
        assert d_tau(d_tau.column(key)).is_zero()


def test_twisted_tensor_rejects_non_mc(sl2):
    ug = UgWindow(sl2, 3)
    odd = OddSym(sl2)
    from hochduflo.hochschild import ug_algebra
    A = ug_algebra(ug)
    C, tau = _canonical_twisting_cochain(sl2, ug, odd)
    bad = GradedMap(C.space, ug.space, 1)
    bad.set_column((0,), GradedVector.basis(ug.space, (0, 0)), check=False)
    conv = ConvolutionAlgebra(C, A,
                              co_differential=odd.coderivation_bracket_key,
                              alg_differential=None)
    carrier = BasisSpace("AxC", [(((), ()), 0)])
    with pytest.raises(StructuralError):
        twisted_tensor_differential(conv, bad, carrier)


def test_cogenerator_round_trip():
    V = BasisSpace("V", [((i,), 0) for i in range(2)])
    C = SymCoalgebra({0: -1, 1: -1}, 2, name="SW")
    carrier = pair_space(V, C.space, "VxSW")
    rng = random.Random(3)
    # f = projection gives the identity
    pr = GradedMap(carrier, carrier, 0)
    for (v, w) in carrier.keys:
        if w == ():
            pr.set_column((v, w), GradedVector.basis(carrier, (v, ())),
                          check=False)
    assert cogenerator_lift(carrier, C, pr) == GradedMap.identity(carrier)
    for seed in range(50):
        f = GradedMap(carrier, carrier, rng.choice((0, 1)))
        for (v, w) in carrier.keys:
            vec = random_vector(V, 0, derive_seed("cg", seed, v, w))
            col = GradedVector.zero(carrier)
            deg = carrier.degree[(v, w)] + f.shift
            for (vk,), c in vec.coeffs.items():
                if carrier.degree[((vk,), ())] == deg:
                    col.add_term(((vk,), ()), c)
            f.set_column((v, w), col, check=False)
        lifted = cogenerator_lift(carrier, C, f)
        # pr o Psi_f = f
        for key in carrier.keys:
            got = GradedVector.zero(carrier)
            for (v2, w2), c in lifted.column(key).coeffs.items():
                if w2 == ():
                    got.add_term((v2, ()), c)
            assert got == f.column(key)
        # comodule morphism law
        assert comodule_morphism_defect(carrier, C, lifted) == []


def test_comodule_module_morphism_sets_coincide():
    """Maps commuting with the coaction = maps linear over the functionals."""
    from hochduflo.exact import rows_nullspace, ZERO
    V = BasisSpace("V", [((0,), 0)])
    C = SymCoalgebra({0: -1, 1: -1}, 2, name="SW")
    carrier = pair_space(V, C.space, "VxSW")
    keys = list(carrier.keys)
    index = {}
    coords = []
    for x in keys:
        for v in keys:
            if carrier.degree[v] == carrier.degree[x]:
                index[(x, v)] = len(coords)
                coords.append((x, v))

    def comodule_rows():
        rows = []
        for x in keys:
            lhs = {}
            for (w1, w2), c in C.coproduct_key(x[1]).coeffs.items():
                for v in keys:
                    if (x, v) in index and v[1] == ():
                        pass
            # assemble (Psi (x) id) phi - phi Psi = 0 rows per output
            out = {}
            for (w1, w2), c in C.coproduct_key(x[1]).coeffs.items():
                src = (x[0], w1)
                for v in keys:
                    if (src, v) in index:
                        out.setdefault((v, w2), {})[(src, v)] = \
                            out.get((v, w2), {}).get((src, v), ZERO) + c
            for v in keys:
                if (x, v) not in index:
                    continue
                for (w1, w2), c in C.coproduct_key(v[1]).coeffs.items():
                    tgt = ((v[0], w1), w2)
                    out.setdefault(tgt, {})[(x, v)] = \
                        out.get(tgt, {}).get((x, v), ZERO) - c
            for tgt, entries in out.items():
                row = [ZERO] * len(coords)
                nonzero = False
                for cc, val in entries.items():
                    if val:
                        row[index[cc]] = val
                        nonzero = True
                if nonzero:
                    rows.append(row)
        return rows

    def module_rows():
        # linearity over every degree-one functional acting by contraction
        rows = []
        functionals = [(0,), (1,)]
        for x in keys:
            for xi in functionals:
                act_x = {}
                (v0, w0) = x
                n = len(w0)
                for i in range(n):
                    if w0[i] == xi[0]:
                        sign = sgn(i)          # (-1)^{i+1} 1-based
                        act_x[(v0, w0[:i] + w0[i + 1:])] = \
                            act_x.get((v0, w0[:i] + w0[i + 1:]), ZERO) + sign
                out = {}
                for src, c in act_x.items():
                    for v in keys:
                        if (src, v) in index:
                            out.setdefault(v, {})[(src, v)] = \
                                out.get(v, {}).get((src, v), ZERO) + c
                for v in keys:
                    if (x, v) not in index:
                        continue
                    (v0b, w0b) = v
                    nb = len(w0b)
                    for i in range(nb):
                        if w0b[i] == xi[0]:
                            tgt = (v0b, w0b[:i] + w0b[i + 1:])
                            out.setdefault(tgt, {})[(x, v)] = \
                                out.get(tgt, {}).get((x, v), ZERO) - sgn(i)
                for tgt, entries in out.items():
                    row = [ZERO] * len(coords)
                    nonzero = False
                    for cc, val in entries.items():
                        if val:
                            row[index[cc]] = val
                            nonzero = True
                    if nonzero:
                        rows.append(row)
        return rows

    co = rows_nullspace(comodule_rows(), len(coords))
    mo = rows_nullspace(module_rows(), len(coords))
    assert len(co) == len(mo)
    # same span: each comodule solution solves the module rows and back
    mrows = module_rows()
    for sol in co:
        for row in mrows:
            assert sum(c * x for c, x in zip(row, sol)) == 0
    crows = comodule_rows()
    for sol in mo:
        for row in crows:
            assert sum(c * x for c, x in zip(row, sol)) == 0


# ---------------------------------------------------------------------------
# degree-shift embeddings
# ---------------------------------------------------------------------------

def _dec_cochain(B, f):
    """dec(f) as a generator map on shifted words, with the standard sign."""
    shifted = shifted_letter_space(B.space)
    T = TensorCoalgebra(shifted, 4)

    def value(word):
        degs = [B.space.degree[k] for k in word]
        return f.value(word).scale(decalage_sign(degs))

    return T, shifted, value


def test_decalage_trivialities(aff1):
    odd, dual = OddSym(aff1), DualOdd(aff1)
    B = dual_odd_algebra(dual, odd)
    f = random_cochain(B, B, 1, 0, 5, label="d1")
    T, shifted, dec_f = _dec_cochain(B, f)
    for k in B.space.keys:
        assert dec_f((k,)) == f.value((k,))     # p = 1: empty sign sum
    mu = multiplication_cochain(B)
    _, _, dec_mu = _dec_cochain(B, mu)
    for a in B.space.keys:
        for b in B.space.keys:
            # m2(down a1, down a2) = (-1)^{|a1|} down(a1 a2)
            assert dec_mu((a, b)) == mu.value((a, b)).scale(
                sgn(B.space.degree[a]))


def test_decalage_bracket_embedding(aff1):
    """down o [f, g] = [coderivations] o down^{(x)(p1+p2-1)} on random pairs."""
    odd, dual = OddSym(aff1), DualOdd(aff1)
    B = dual_odd_algebra(dual, odd)
    shifted = shifted_letter_space(B.space)
    T = TensorCoalgebra(shifted, 3)
    rng = random.Random(11)
    for seed in range(50):
        p1, p2 = rng.randint(1, 2), rng.randint(1, 2)
        r1, r2 = rng.randint(-1, 1), rng.randint(-1, 1)
        f = random_cochain(B, B, p1, r1, derive_seed("df", seed), label="f")
        g = random_cochain(B, B, p2, r2, derive_seed("dg", seed), label="g")

        def hat(h):
            q = GradedMap(T.space, T.space, h.p + h.r - 1)
            for word in T.space.keys:
                if len(word) != h.p:
                    continue
                degs = [B.space.degree[k] for k in word]
                val = h.value(word).scale(decalage_sign(degs))
                col = GradedVector.zero(T.space)
                for t, c in val.coeffs.items():
                    col.add_term((t,), c)
                q.set_column(word, col, check=False)
            return T.coderivation_from({h.p: q})

        fh, gh = hat(f), hat(g)
        br = gerstenhaber(f, g)
        flip = sgn((f.p + f.r - 1) * (g.p + g.r - 1))
        for word in T.space.keys:
            if len(word) != br.p or br.p <= 0 or br.p > 3:
                continue
            comm = GradedVector.zero(T.space)
            comm.add_inplace(fh(gh.column(word)))
            comm.add_inplace(gh(fh.column(word)), -flip)
            proj = GradedVector.zero(B.space)
            for t, c in comm.coeffs.items():
                if len(t) == 1:
                    proj.add_term(t[0], c)
            degs = [B.space.degree[k] for k in word]
            want = br.value(word).scale(decalage_sign(degs))
            assert proj == want


def test_decalage_cup_embedding(aff1):
    """(dec f cup-hat dec g) o down words = f cup g."""
    odd, dual = OddSym(aff1), DualOdd(aff1)
    B = dual_odd_algebra(dual, odd)
    rng = random.Random(13)
    for seed in range(50):
        p1, p2 = rng.randint(0, 2), rng.randint(0, 2)
        f = random_cochain(B, B, p1, rng.randint(-1, 1),
                           derive_seed("cf", seed), label="f")
        g = random_cochain(B, B, p2, rng.randint(-1, 1),
                           derive_seed("cg", seed), label="g")
        fg = cup(f, g)
        for _ in range(6):
            word = tuple(rng.choice(B.space.keys) for _ in range(p1 + p2))
            degs = [B.space.degree[k] for k in word]
            # mu(dec f (x) dec g) Delta_T on the shifted word
            first, second = word[:p1], word[p1:]
            l_degs = [B.space.degree[k] for k in first]
            r_degs = [B.space.degree[k] for k in second]
            sign = decalage_sign(l_degs) * decalage_sign(r_degs)
            # Koszul: dec g (degree p2+r2 ... ) crossing the shifted first leg
            cross = sgn((g.p + g.r) * sum(d - 1 for d in l_degs))
            got = B.mul(f.value(first), g.value(second)).scale(sign * cross)
            want = fg.value(word).scale(decalage_sign(degs))
            assert got == want


def test_hat_differential_squares_iff_dga(aff1):
    """[m, m] = 0 exactly when the product data is a dg algebra."""
    odd, dual = OddSym(aff1), DualOdd(aff1)
    B = dual_odd_algebra(dual, odd)
    shifted = shifted_letter_space(B.space)
    T = TensorCoalgebra(shifted, 3)

    def build_m(mul_keys, d_key):
        q1 = GradedMap(T.space, T.space, 1)
        q2 = GradedMap(T.space, T.space, 1)
        for k in B.space.keys:
            col = GradedVector.zero(T.space)
            for t, c in d_key(k).items():
                col.add_term((t,), c)
            q1.set_column((k,), col, check=False)
        for a in B.space.keys:
            for b in B.space.keys:
                col = GradedVector.zero(T.space)
                for t, c in mul_keys(a, b).items():
                    col.add_term((t,), sgn(B.space.degree[a]) * c)
                q2.set_column((a, b), col, check=False)
        return T.coderivation_from({1: q1}), T.coderivation_from({2: q2})

    m1, m2 = build_m(B.mul_keys, B.d_key)
    m_hat = m1 + m2
    square = m_hat.compose(m_hat)
    for word in T.space.keys:
        if len(word) <= 2:
            assert square.column(word).is_zero()

    # break associativity by redefining one product entry
    def bad_mul(a, b):
        out = B.mul_keys(a, b)
        if a == (0,) and b == (1, 0):
            out = out + GradedVector.basis(B.space, (0,), 7)
        return out

    b1, b2 = build_m(bad_mul, B.d_key)
    bad_hat = b1 + b2
    bad_square = bad_hat.compose(bad_hat)
    assert any(not bad_square.column(w).is_zero()
               for w in T.space.keys if len(w) <= 3)
