"""The concrete triple: differential, actions, homotopies, vanishing."""

import inspect
import random
from fractions import Fraction as Q
from itertools import product

import pytest

from hochduflo.exact import (GradedMap, GradedVector, StructuralError,
                             WindowOverflow, derive_seed, random_vector)
from hochduflo.keller import (AbelianActionCone, AugmentationCone, LieTriple,
                              ModuleCochain, frak_h_sequence,
                              frak_h_vanishing_index, kernel_dimension_match,
                              row_exactness_certificate)
from hochduflo.liealg import (DualOdd, LieAlgebra, OddSym, cocontract,
                              contract, pbw_map)
from hochduflo.hochschild import (hoch_d, hoch_partial, random_cochain,
                                  ug_algebra, words_of)
from hochduflo.signs import sgn
from hochduflo.trio import XCochain, rho_a_star
from hochduflo.suites import TailValues, suite_vanishing
from hochduflo.duflo import (DufloContext, duflo_series, hkr,
                             lift_central_through_projection, lift_residuals,
                             quadratic_invariant, random_pullback_element,
                             series_contraction)

from oracles import (LazyModuleCochain, lazy_frak_h_sequence, old_lmul_key,
                     old_rmul_key, per_key_lmul, per_key_rmul)


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


@pytest.mark.parametrize("name", ["aff1", "sl2", "so3", "heisenberg3"])
def test_action_keys_match_the_add_term_oracles(name):
    """Both actions of X equal their one-``add_term``-per-key versions on
    every key pair of a PBW cap 3 window, and the left action refuses
    exactly where the old one did."""
    triple = LieTriple(getattr(LieAlgebra, name)(), 3)
    refused = 0
    for x_key in triple.x_space.keys:
        for a_key in triple.ug.space.keys:
            try:
                want = old_lmul_key(triple, a_key, x_key)
            except WindowOverflow:
                with pytest.raises(WindowOverflow):
                    triple._lmul_key(a_key, x_key)
                refused += 1
                continue
            got = triple._lmul_key(a_key, x_key)
            assert list(got.items()) == list(want.items()), (a_key, x_key)
        for b_key in triple.dual.space.keys:
            got = triple._rmul_key(x_key, b_key)
            want = old_rmul_key(triple, x_key, b_key)
            assert list(got.items()) == list(want.items()), (x_key, b_key)
    assert refused


def _action_outcome(act, *args):
    try:
        return list(act(*args).coeffs.items())
    except WindowOverflow:
        return WindowOverflow


@pytest.mark.parametrize("name", ["aff1", "sl2", "heisenberg3"])
def test_vector_actions_match_the_per_key_sums(name):
    """X's one-pass vector actions equal the old per-key sums on seeded X
    vectors of a PBW cap 5 window: the same coefficients in the same
    insertion order, and a refusal on the same inputs, also for a vector
    with a key at the PBW edge."""
    triple = LieTriple(getattr(LieAlgebra, name)(), 5)
    X, keys = triple.X, triple.x_space.keys
    rng = random.Random(derive_seed("x-actions", name))
    pool = [k for k in keys if len(k[0]) <= 4]
    edge = next(k for k in keys if len(k[0]) == triple.pbw_cap)
    vectors = [GradedVector(triple.x_space, {
        k: Q(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        for k in rng.sample(pool, n)}) for n in (1, 2, 5, 12, 30)
        for _ in range(4)]
    vectors.append(GradedVector(triple.x_space, {pool[3]: 2, edge: -1}))
    refused = 0
    for v in vectors:
        for a_key in (k for k in triple.ug.space.keys if len(k) <= 2):
            got = _action_outcome(X.lmul, a_key, v)
            assert got == _action_outcome(per_key_lmul, X, a_key, v)
            refused += got is WindowOverflow
        for b_key in triple.dual.space.keys:
            assert (_action_outcome(X.rmul, v, b_key)
                    == _action_outcome(per_key_rmul, X, v, b_key))
    assert refused


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


def test_rho_a_star_is_rho_a_valuewise(sl2):
    """rho_A* post-composes with the same left action as rho_a: equal
    columns on the covered keys, and the same keys refused."""
    triple = LieTriple(sl2, 3)
    f = random_cochain(triple.A, triple.A, 1, 0, 4,
                       letters=[k for k in triple.ug.space.keys if len(k) <= 1],
                       value_keys=[k for k in triple.ug.space.keys
                                   if len(k) <= 2])
    lifted = rho_a_star(f, triple.X)
    refusing = 0
    for a in triple.ug.space.keys:
        if len(a) > 1:
            continue
        got, want = lifted.value((a,)), triple.rho_a(f.value((a,)))
        assert got.covered == want.covered
        assert got.columns == want.columns
        refusing += want.covered is not None
        for key in triple.x_space.keys:
            if want.covered is not None and key not in want.covered:
                with pytest.raises(WindowOverflow):
                    got.column(key)
    assert refusing         # the sampled values do leave the window


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
    import hochduflo.exact as exact
    from oracles import dense_rows_solve

    def build():
        g = getattr(LieAlgebra, name)()
        cone = AugmentationCone(LieTriple(g, 4), 4)
        return cone.space.keys, cone.build_homotopy()

    keys, sparse = build()
    monkeypatch.setattr(exact, "rows_solve", dense_rows_solve)
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


def tail_chain_setup(dom_cap, val_cap):
    """A tail cone, its value module, its algebra and the vanishing suite's
    words: the first 30 words of each arity over the letters."""
    cone = AbelianActionCone(dom_cap=dom_cap, val_cap=val_cap)
    a_letters = [k for k in cone.val.space.keys if len(k) <= 1]

    def words_fn(n):
        return list(product(a_letters, repeat=n))[:30]

    return cone, cone.module(), ug_algebra(cone.val), words_fn


def test_tail_values_stay_equal_to_fresh_draws():
    """The vanishing suite's tail sweep hands its memoized values out shared:
    after a ``frak_h_vanishing_index`` sweep every stored triple still
    equals a fresh draw, so no caller mutated one, and a second call
    returns the stored object."""
    cone, M, A, words_fn = tail_chain_setup(5, 16)
    for (p, r) in ((0, 0), (1, 0), (0, 1)):
        tails = TailValues(cone, 7, p, r)
        f = ModuleCochain(A, M, p, tails.value, label="tail")
        frak_h_vanishing_index(f, r, p + r + cone.degree_bound() + 2,
                               words_fn)
        memo = tails._memo_value
        assert memo
        for (word,), got in memo.items():
            assert got == TailValues.value.__wrapped__(tails, word), word
            assert tails.value(word) is got


@pytest.mark.parametrize("caps", [(5, 16), (3, 4)])
def test_memoized_tail_chain_matches_the_lazy_chain(caps):
    """Each level of the tail chain, which remembers its values, equals
    the lazy chain on the vanishing suite's words.  The (3, 4) cone leaves
    its window on some words: the memoized chain refuses exactly there,
    again on a second read, and stores nothing for them."""
    cone, M, A, words_fn = tail_chain_setup(*caps)
    refused = 0
    for (p, r) in ((0, 0), (1, 0), (0, 1)):
        tails = TailValues(cone, 7, p, r)
        k_max = p + r + cone.degree_bound() + 2
        seq = frak_h_sequence(
            ModuleCochain(A, M, p, tails.value, label="tail"), r, k_max)
        lazy = lazy_frak_h_sequence(
            LazyModuleCochain(A, M, p, tails.value, label="tail"), r, k_max)
        assert [deg for _, deg in seq] == [deg for _, deg in lazy]
        for k, ((hk, _), (lk, _)) in enumerate(zip(seq, lazy)):
            for word in words_fn(p + k):
                try:
                    want = lk.value(word)
                except WindowOverflow:
                    refused += 1
                    for _ in range(2):
                        with pytest.raises(WindowOverflow):
                            hk.value(word)
                    assert (word,) not in hk.__dict__.get(
                        "_memo__word_value", {})
                    continue
                assert hk.value(word) == want, (p, r, k, word)
                assert hk.value(word) is hk.value(word)
    assert refused == (0 if caps == (5, 16) else 7)


def test_tail_memo_survives_a_second_sweep():
    """Two ``frak_h_vanishing_index`` sweeps of one cochain agree, and
    afterwards every remembered value of both chains and of the cochain
    itself still equals a fresh evaluation of its formula: no caller
    changed a shared value in place."""
    cone, M, A, words_fn = tail_chain_setup(5, 16)
    fresh = ModuleCochain._word_value.__wrapped__
    for (p, r) in ((0, 0), (1, 0), (0, 1)):
        f = ModuleCochain(A, M, p, TailValues(cone, 7, p, r).value,
                          label="tail")
        k_max = p + r + cone.degree_bound() + 2
        first, seq1 = frak_h_vanishing_index(f, r, k_max, words_fn)
        second, seq2 = frak_h_vanishing_index(f, r, k_max, words_fn)
        assert first == second
        cochains = [f] + [hk for hk, _ in seq1 + seq2]
        for cochain in cochains:
            for (word,), got in cochain._memo__word_value.items():
                assert got == fresh(cochain, word), (cochain.label, word)
        for (h1, _), (h2, _) in zip(seq1, seq2):
            for (word,), got in h1._memo__word_value.items():
                assert h2.value(word) == got


# -- the key-level memo tables ----------------------------------------------

# the tables the two tests below must at least find
WINDOW_TABLES = {"LieTriple._d_x_key", "DualOdd.mul_keys",
                 "DualOdd.interior_key", "OddSym.coderivation_bracket_key",
                 "OddSym.contract_key"}


def memo_args(obj):
    """(method, argument tuples) of every ``key_memo`` map of ``obj``'s
    class, found through ``__wrapped__``.  Each parameter name reads its key
    range below; a table with a parameter the range does not name fails
    here, so no table is left out."""
    g = obj.g
    own = obj.x_space.keys if isinstance(obj, LieTriple) else obj.space.keys
    odd_keys, dual_keys = OddSym(g).space.keys, DualOdd(g).space.keys
    ranges = {"key": own, "x_key": own, "k1": own, "k2": own,
              "odd_key": odd_keys, "s_key": odd_keys, "dual_key": dual_keys}
    out = []
    for cls in type(obj).__mro__:
        for method in vars(cls).values():
            if not hasattr(method, "__wrapped__"):
                continue
            names = list(inspect.signature(method).parameters)[1:]
            out.append((method, list(product(*(ranges[n] for n in names)))))
    return out


def memo_table(obj, method):
    """The memo table ``exact.key_memo`` keeps on ``obj`` for ``method``."""
    return vars(obj).get("_memo_" + method.__name__, {})


def uncached(method, obj, args):
    """The value of the undecorated map, or the refusal it raises."""
    try:
        return method.__wrapped__(obj, *args)
    except WindowOverflow as exc:
        return type(exc)


@pytest.mark.parametrize("name", ["sl2", "heisenberg3"])
def test_memoized_maps_match_uncached(name):
    """Every window key gives the uncached value through the memo, a hit
    hands out the stored vector, and a refusal is raised again each time
    without ever being stored."""
    triple = LieTriple(getattr(LieAlgebra, name)(), 3)
    refused = 0
    tables = set()
    for obj in (triple, triple.dual, triple.odd):
        for method, arg_list in memo_args(obj):
            tables.add(method.__qualname__)
            for args in arg_list:
                want = uncached(method, obj, args)
                if want is WindowOverflow:
                    refused += 1
                    for _ in range(2):
                        with pytest.raises(WindowOverflow):
                            method(obj, *args)
                    assert args not in memo_table(obj, method)
                    continue
                got = method(obj, *args)
                assert got == want, (method.__name__, args)
                assert method(obj, *args) is got
    assert refused      # the keys of top PBW length with an odd factor
    assert WINDOW_TABLES <= tables


def test_memo_tables_survive_a_lift_and_a_certificate_sweep(heis3):
    """After an endgame-shaped lift, its residual sweep, a pullback
    homotopy identity, a row certificate and the hkr cochains of a
    polyvector, every table holds values and every stored value still
    equals a fresh uncached one: no caller mutated a shared vector."""
    ctx = DufloContext(heis3, pbw_cap=6, sym_cap=4)
    _J, Js = duflo_series(heis3, 4)
    quad = quadratic_invariant(heis3, ctx.sym)
    u0 = pbw_map(ctx.sym, ctx.ug, series_contraction(ctx.sym, Js, quad))
    comps, fB = lift_central_through_projection(ctx, u0, depth=5,
                                                max_extra=1)
    x_keys = [k for k in ctx.X.space.keys if len(k[0]) + len(k[1]) <= 2]
    assert lift_residuals(ctx, u0, comps, fB, x_keys) == []
    e = random_pullback_element(ctx, 2, seed=3)
    assert ctx.homotopy_identity_residual(e, 2).is_zero()
    assert row_exactness_certificate(ctx.triple, "R", 1, 1, 0, seed=4,
                                     n_inputs=20) == []
    t = GradedVector(ctx.tp.space, {k: 1 for k in ctx.tp.space.keys
                                    if 1 <= len(k[1]) <= 2})
    for f in hkr(ctx.tp, ctx.B, t).values():
        for word in words_of(ctx.B.space.keys, f.p):
            f.value(word)
    filled = set()
    for obj in (ctx.triple, ctx.dual, ctx.odd, ctx.tp.dual):
        for method, _ in memo_args(obj):
            table = memo_table(obj, method)
            for args, got in table.items():
                assert got == method.__wrapped__(obj, *args), (
                    method.__name__, args)
            if table:
                filled.add(method.__qualname__)
    assert WINDOW_TABLES <= filled
