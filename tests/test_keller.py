"""The concrete triple: differential, actions, homotopies, vanishing."""

import random
from fractions import Fraction as Q

import pytest

from hochduflo.exact import (GradedMap, GradedVector, StructuralError,
                             WindowOverflow, derive_seed, random_vector)
from hochduflo.keller import (AbelianActionCone, AugmentationCone, LieTriple,
                              ModuleCochain, frak_h_sequence,
                              frak_h_vanishing_index, kernel_dimension_match,
                              row_exactness_certificate)
from hochduflo.liealg import LieAlgebra, cocontract, contract
from hochduflo.hochschild import hoch_d, hoch_partial, ug_algebra
from hochduflo.signs import sgn
from hochduflo.trio import XCochain, d_left, d_right
from hochduflo.suites import suite_vanishing


def test_build_triple_rejects_bad_jacobi():
    bad = LieAlgebra(3, {(0, 1): {2: 1, 0: 1}, (2, 0): {0: 2},
                         (2, 1): {1: -2}}, "broken")
    with pytest.raises(StructuralError):
        LieTriple(bad, 2)


def test_differential_values(abelian1, aff1, sl2):
    t1 = LieTriple(abelian1, 3)
    # no bracket term for the abelian algebra
    got = t1.X.d_key(((), (0,)))
    assert got == GradedVector.basis(t1.x_space, ((0,), ()))
    t2 = LieTriple(aff1, 3)
    # frozen expansion of the two-factor generator
    got2 = t2.X.d_key(((), (0, 1)))
    want = GradedVector(t2.x_space, {
        ((0,), (1,)): 1, ((1,), (0,)): -1, ((), (1,)): -1})
    assert got2 == want
    t3 = LieTriple(sl2, 3)
    for key in t3.x_space.keys:
        if len(key[0]) + len(key[1]) <= 3:
            assert t3.X.d_vec(t3.X.d_key(key)).is_zero()


def test_action_maps(sl2):
    triple = LieTriple(sl2, 3)
    assert triple.rho_a(triple.ug.unit()) == GradedMap.identity(triple.x_space)
    # the splitting recovers every dual vector
    for b in triple.dual.space.keys:
        got = triple.eps_star(triple.rho_b(
            GradedVector.basis(triple.dual.space, b)))
        assert got == GradedVector.basis(triple.dual.space, b)
    # opposite-algebra law with the Koszul sign
    rng = random.Random(2)
    for _ in range(20):
        b1 = rng.choice(triple.dual.space.keys)
        b2 = rng.choice(triple.dual.space.keys)
        prod = triple.dual.mul_keys(b1, b2)
        lhs = None
        for k, c in prod.items():
            m = triple.rho_b(GradedVector.basis(triple.dual.space, k)).scale(c)
            lhs = m if lhs is None else lhs + m
        rhs = triple.rho_b(GradedVector.basis(triple.dual.space, b2)) \
            .compose(triple.rho_b(GradedVector.basis(triple.dual.space, b1))) \
            .scale(sgn(len(b1) * len(b2)))
        if lhs is None:
            assert rhs.is_zero()
        else:
            assert lhs == rhs


def test_rho_a_is_chain_map_and_section(aff1):
    triple = LieTriple(aff1, 4)
    # chain map into the commutator complex: left multiplication commutes
    # with the differential (checked inside the covered window)
    rng = random.Random(3)
    for _ in range(10):
        u = rng.choice([k for k in triple.ug.space.keys if len(k) <= 2])
        m = triple.rho_a(GradedVector.basis(triple.ug.space, u))
        for key in triple.x_space.keys:
            if len(key[0]) + len(key[1]) > 2:
                continue
            try:
                lhs = triple.X.d_vec(m(key))
                rhs = m(triple.X.d_key(key))
            except WindowOverflow:
                continue
            assert lhs == rhs
    # section property: evaluating at the vacuum recovers the element
    for u in triple.ug.space.keys:
        if len(u) <= 3:
            m = triple.rho_a(GradedVector.basis(triple.ug.space, u))
            got = m(((), ()))
            assert got == GradedVector.basis(triple.x_space, (u, ()))


def test_degree_zero_right_linear_classes_match_window(aff1, sl2):
    """Degree-zero cocycles of the transported differential on the
    cogenerator coordinates of right-linear endomorphisms are right
    multiplications; their count is the complementary window count."""
    from hochduflo.exact import rows_nullspace
    for g, dom_cap, val_cap in ((aff1, 2, 4), (sl2, 1, 3)):
        ug_dom = [k for k in LieTriple(g, val_cap).ug.space.keys
                  if len(k) <= dom_cap]
        triple = LieTriple(g, val_cap)
        val = [k for k in triple.ug.space.keys]
        coords = [(u, v) for u in ug_dom for v in val]
        index = {c: i for i, c in enumerate(coords)}
        rows = []
        # (d f)(x)(u) = f(u) sx - f(u sx) = 0 for every generator x
        for u in ug_dom:
            for i in range(g.dimension):
                if len(u) + 1 > dom_cap:
                    continue
                out = {}
                for v in val:
                    try:
                        img = triple.ug.mul_keys(v, (i,))
                    except WindowOverflow:
                        continue
                    for t, c in img.items():
                        out.setdefault(t, {})[(u, v)] = \
                            out.get(t, {}).get((u, v), Q(0)) + c
                moved = triple.ug.mul_keys(u, (i,))
                for u2, c in moved.items():
                    for v in val:
                        out.setdefault(v, {})[(u2, v)] = \
                            out.get(v, {}).get((u2, v), Q(0)) - c
                for t, entries in out.items():
                    row = [Q(0)] * len(coords)
                    nonzero = False
                    for cc, val2 in entries.items():
                        j = index.get(cc)
                        if j is not None and val2:
                            row[j] = val2
                            nonzero = True
                    if nonzero:
                        rows.append(row)
        kernel = rows_nullspace(rows, len(coords))
        window = [k for k in triple.ug.space.keys
                  if len(k) <= val_cap - dom_cap]
        # every windowed right multiplication is a cocycle, and the
        # assignment w -> R_w is injective: the classes hit the full slice
        from oracles import gauss_rank
        right_mults = []
        for w in window:
            vec = [Q(0)] * len(coords)
            ok = True
            for u in ug_dom:
                img = triple.ug.mul_keys(w, u)
                for t, c in img.items():
                    j = index.get((u, t))
                    if j is None:
                        ok = False
                        break
                    vec[j] = c
                if not ok:
                    break
            assert ok
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
            right_mults.append(vec)
        assert gauss_rank(right_mults) == len(window)
        # and the window kernel contains nothing of negative filtration:
        # its dimension is bounded below by the slice count
        assert len(kernel) >= len(window), g.name


def test_top_form(abelian1, sl2):
    t1 = LieTriple(abelian1, 2)
    omega, tau = t1.top_form_pair()
    # x = 1: the iterated contraction gives the parity of the dimension
    tau_vec = GradedVector.basis(t1.dual.space, tau)
    x1 = cocontract(t1.dual, tau_vec, ())
    lhs = contract(t1.odd, GradedVector.basis(t1.odd.space, omega), tau)
    assert lhs == GradedVector.basis(t1.odd.space, (), -1)   # e1 |_ eps1 = -1
    for d in (1, 2, 3, 4):
        g = LieAlgebra.abelian(d)
        t = LieTriple(g, 1)
        assert t.top_form_residuals() == []
    assert LieTriple(sl2, 2).top_form_residuals() == []


def test_h_right_frozen_value(abelian1):
    triple = LieTriple(abelian1, 3)
    f = XCochain(triple.A, triple.X, triple.B, 0, 1, 0,
                 seed=derive_seed("hr"), label="f",
                 x_letters=triple.x_space.keys,
                 b_letters=triple.dual.space.keys,
                 value_keys=[k for k in triple.x_space.keys
                             if len(k[0]) <= 2])
    hf = triple.h_right(f)
    u = (0,)
    got = hf.value((), (u, ()), ())
    want = f.value((), (u, (0,)), ((0,),))     # +f((u (x) e1); eps1)
    assert got == want


def test_h_left_frozen_value(aff1):
    triple = LieTriple(aff1, 4)
    f = XCochain(triple.A, triple.X, triple.B, 1, 0, 0,
                 seed=derive_seed("hl"), label="f",
                 a_letters=[k for k in triple.ug.space.keys if len(k) <= 2],
                 x_letters=triple.x_space.keys,
                 value_keys=[k for k in triple.x_space.keys
                             if len(k[0]) <= 2])
    hf = triple.h_left(f)
    x = ((0,), (1,))
    got = hf.value((), x, ())
    want = f.value(((0,),), ((), (1,)), ()).scale(-1)
    assert got == want


@pytest.mark.parametrize("side", ["R", "L"])
def test_homotopy_identities_random(side, aff1):
    triple = LieTriple(aff1, 5)
    for (p, q, r) in ((0, 0, 0), (1, 0, -1), (0, 1, 0), (1, 1, 1)):
        bad = row_exactness_certificate(triple, side, p, q, r, seed=3,
                                        n_inputs=40)
        assert bad == [], (side, p, q, r)


def test_kernel_dimensions(aff1):
    for side in ("R", "L"):
        k, l = kernel_dimension_match(LieTriple(aff1, 4), side, 0, dom_pbw=2)
        assert k == l


def test_cone_homotopy(aff1, sl2):
    for g in (aff1, sl2):
        triple = LieTriple(g, 4)
        cone = AugmentationCone(triple, 4)
        h = cone.build_homotopy()
        assert h.column(("k",)) == GradedVector.basis(
            cone.space, ("x", ((), ())))
        assert cone.homotopy_residuals() == []
        assert cone.containment_violations() == []


@pytest.mark.parametrize("name", ["sl2", "heisenberg3"])
def test_cone_homotopy_matches_dense_elimination(name, monkeypatch):
    """The sparse solver picks the same elimination-minimal preimages as the
    dense Bareiss solver: every column of the cone homotopy is equal."""
    import hochduflo.keller as keller
    from oracles import dense_rows_solve

    def build():
        g = getattr(LieAlgebra, name)()
        cone = AugmentationCone(LieTriple(g, 4), 4)
        return cone.space.keys, cone.build_homotopy()

    keys, sparse = build()
    monkeypatch.setattr(keller, "rows_solve", dense_rows_solve)
    dense_keys, dense = build()
    assert keys == dense_keys
    assert any(sparse.column(k) for k in keys)
    for k in keys:
        assert sparse.column(k).coeffs == dense.column(k).coeffs, k


def test_cone_depth_refusal(aff1):
    with pytest.raises(WindowOverflow):
        AugmentationCone(LieTriple(aff1, 2), 3)


def test_module_filtration_drop(aff1):
    """h applied after any window map lowers the enveloping filtration."""
    triple = LieTriple(aff1, 4)
    cone = AugmentationCone(triple, 4)
    h = cone.build_homotopy()
    for key in cone.space.keys:
        col = h.column(key)
        bound = (len(key[1][0]) if key != ("k",) else 1) - 1
        for tkey in col.coeffs:
            assert tkey != ("k",)
            assert len(tkey[1][0]) <= max(bound, 0)


def test_frak_h_zero_input():
    cone = AbelianActionCone(dom_cap=3, val_cap=8)
    M = cone.module()
    A = ug_algebra(cone.val)
    zero = ModuleCochain(A, M, 0, lambda w: M.zero(), label="0")
    seq = frak_h_sequence(zero, 0, 3)
    letters = [k for k in cone.val.space.keys if len(k) <= 1]
    for hk, _deg in seq:
        words = [()] if hk.p == 0 else [(a,) * hk.p for a in letters]
        for w in words:
            assert M.is_zero(hk.value(w))


def test_frak_h_master_identity():
    """The truncated operator sum is a two-sided homotopy inverse."""
    cone = AbelianActionCone(dom_cap=5, val_cap=16)
    M = cone.module()
    A = ug_algebra(cone.val)
    a_letters = [k for k in cone.val.space.keys if len(k) <= 1]

    def words_fn(n):
        out = [()]
        for _ in range(n):
            out = [w + (a,) for w in out for a in a_letters]
        return out[:16]

    def fn(word):
        s = derive_seed("master", word)
        vv = random_vector(cone.val.space, 0, s)
        v = GradedVector(cone.val.space,
                         {k: c for k, c in vv.coeffs.items() if len(k) <= 2})
        g0 = GradedMap(cone.dom.space, cone.val.space, 0)
        g1 = GradedMap(cone.dom.space, cone.val.space, 0)
        for u in cone.dom.space.keys:
            vec = random_vector(cone.val.space, 0, derive_seed("mg", s, u))
            g0.set_column(u, GradedVector(
                cone.val.space,
                {k: c for k, c in vec.coeffs.items() if len(k) <= 2}),
                check=False)
        return (v, g0, g1)

    r = 0
    f = ModuleCochain(A, M, 0, fn, label="f", r=r)
    K = r + cone.degree_bound() + 1
    seq = frak_h_sequence(f, r, K)
    seq_dh = frak_h_sequence(hoch_d(f, M), r, K)
    seq_dp = frak_h_sequence(hoch_partial(f, M), r + 1, K)
    for arity in (0, 1, 2):
        for w in words_fn(arity):
            acc = M.zero()
            for k, (hk, _d) in enumerate(seq):
                if hk.p == arity:
                    acc = M.add(acc, M.scale(
                        hoch_partial(hk, M).value(w), sgn(k)))
                if hk.p == arity - 1:
                    acc = M.add(acc, M.scale(
                        hoch_d(hk, M).value(w), sgn(k)))
            for k, (hk, _d) in enumerate(seq_dh):
                if hk.p == arity:
                    acc = M.add(acc, M.scale(hk.value(w), sgn(k)))
            for k, (hk, _d) in enumerate(seq_dp):
                if hk.p == arity:
                    acc = M.add(acc, M.scale(hk.value(w), sgn(k)))
            want = f.value(w) if arity == 0 else M.zero()
            diff = M.add(acc, M.scale(want, -1))
            v, g0, g1 = diff
            assert not v
            for gmap in (g0, g1):
                for u, col in gmap.columns.items():
                    assert not col, (arity, w)


def test_vanishing_suite(aff1):
    report = suite_vanishing(aff1, depth=4, seed=0)
    assert report.ok, [(c.name, c.witness) for c in report.checks if not c.ok]
