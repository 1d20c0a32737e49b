"""Trio complex: semidirect algebra, component differentials, embeddings."""

import random
from fractions import Fraction as Q
from itertools import product
from types import MappingProxyType

import pytest

from hochduflo import keller, trio
from hochduflo.exact import (GradedMap, GradedVector, LazyMap,
                             StructuralError, WindowOverflow, derive_seed)
from hochduflo.hochschild import (BimoduleOps, Cochain, hoch_d, hoch_partial,
                                  random_cochain)
from hochduflo.keller import (AbelianActionCone, LieTriple,
                              row_exactness_certificate)
from hochduflo.liealg import LieAlgebra
from hochduflo.suites import (suite_homotopy_identity, suite_trio,
                              suite_phi_psi)
from hochduflo.trio import (ALinearEnds, BLinearEnds, EndCochain, EndMaps,
                            TrioCochain, XCochain, d_ax, d_left, d_right,
                            del_x, embed_trio, left_action_map, phi_embed,
                            project_a, psi_embed, random_x_cochain,
                            rho_a_star, semidirect_algebra, trio_differential)

from oracles import eager_guarded_map, old_d_left, old_d_right, old_del_x


def test_semidirect_is_dg_algebra(aff1):
    triple = LieTriple(aff1, 4)
    E = semidirect_algebra(triple.A, triple.X, triple.B)
    rng = random.Random(0)
    letters = ([("A", k) for k in triple.ug.space.keys if len(k) <= 1]
               + [("X", k) for k in triple.x_space.keys if len(k[0]) <= 1]
               + [("B", k) for k in triple.dual.space.keys])
    for _ in range(60):
        a, b, c = (rng.choice(letters) for _ in range(3))
        ab = E.mul_keys(a, b)
        lhs = E.mul(ab, GradedVector.basis(E.space, c))
        rhs = E.mul(GradedVector.basis(E.space, a), E.mul_keys(b, c))
        assert lhs == rhs
        # X.X = 0 and A.B = 0 inside the product
        if a[0] == "X" and b[0] == "X":
            assert ab.is_zero()
        if a[0] == "A" and b[0] == "B":
            assert ab.is_zero()
        # Leibniz for the diagonal differential
        d_ab = E.d_vec(ab)
        want = E.mul(E.d_key(a), GradedVector.basis(E.space, b))
        want.add_inplace(E.mul(GradedVector.basis(E.space, a), E.d_key(b)),
                         1 if E.space.degree[a] % 2 == 0 else -1)
        assert d_ab == want


def test_mixed_leg_formula(aff1):
    """The A-to-X component multiplies the value into the bimodule."""
    triple = LieTriple(aff1, 4)
    ident = Cochain(triple.A, triple.A, 1, 0, columns={
        ((0,),): GradedVector.basis(triple.ug.space, (0,))})
    leg = d_ax(ident, triple.X, triple.B)
    x = ((), (0, 1))
    got = leg.value(((0,),), x, ())
    assert got == GradedVector.basis(triple.x_space, ((0,), (0, 1)))


def test_del_x_of_identity_vanishes(aff1):
    triple = LieTriple(aff1, 4)
    cols = {((), k, ()): GradedVector.basis(triple.x_space, k)
            for k in triple.x_space.keys}
    ident = XCochain(triple.A, triple.X, triple.B, 0, 0, 0, columns=cols)
    dx = del_x(ident)
    for k in triple.x_space.keys:
        if len(k[0]) + len(k[1]) <= 3:
            assert dx.value((), k, ()).is_zero()


def test_trio_suite(aff1):
    report = suite_trio(aff1, trials=25, seed=0, pbw=5)
    assert report.ok, [(c.name, c.witness) for c in report.checks if not c.ok]


def test_projection_check_reads_pi_a(aff1, monkeypatch):
    """A trio differential with a doubled A-part breaks
    pi_A o d = dH^A o pi_A and leaves pi_B alone, so the projection check
    fails with a pi_A witness."""
    from hochduflo import suites
    from hochduflo.hochschild import add_cochain
    plain = suites.trio_differential

    def doubled(t, A, X, B, a_ops, b_ops):
        out = plain(t, A, X, B, a_ops, b_ops)
        for key, f in list(out.fA.items()):
            add_cochain(out.fA, key, f)
        return out

    monkeypatch.setattr(suites, "trio_differential", doubled)
    report = suite_trio(aff1, trials=4, seed=0, pbw=4)
    check = next(c for c in report.checks
                 if c.name == "projections-are-chain-maps")
    assert not check.ok and check.witness[0] == "piA", check.witness


def test_projection_sections(aff1):
    triple = LieTriple(aff1, 4)
    E = semidirect_algebra(triple.A, triple.X, triple.B)
    f = random_cochain(triple.A, triple.A, 1, 0, 3,
                       letters=[k for k in triple.ug.space.keys
                                if len(k) <= 2],
                       value_keys=[k for k in triple.ug.space.keys
                                   if len(k) <= 2], label="fa")
    F = embed_trio(TrioCochain(fA={(1, 0): f}), E, 1, 0)
    back = project_a(F, triple.A, E)
    for k in triple.ug.space.keys:
        if len(k) <= 2:
            assert back.value(((k),)) == f.value((k,))


def test_phi_psi_values(aff1):
    triple = LieTriple(aff1, 4)
    ident = GradedMap.identity(triple.x_space)
    f_id = EndCochain(triple.A, triple.X, 0, 0, columns={(): ident})
    phi = phi_embed(f_id, triple.B)
    g_id = EndCochain(triple.B, triple.X, 0, 0, columns={(): ident})
    psi = psi_embed(g_id, triple.A)
    for x in [k for k in triple.x_space.keys if len(k[0]) <= 2]:
        assert phi.value((), x, ()) == GradedVector.basis(triple.x_space, x)
        assert psi.value((), x, ()) == \
            GradedVector.basis(triple.x_space, x, -1)


def test_phi_psi_suite(aff1):
    report = suite_phi_psi(aff1, trials=25, seed=0)
    assert report.ok, [(c.name, c.witness) for c in report.checks if not c.ok]


def test_phi_psi_suite_never_mutates_a_lazy_column(aff1, monkeypatch):
    """Every column a lazy End(X) map computes is handed out shared, so
    no caller may write into one: with each such column frozen (its
    coefficients a read-only mapping) the suite gives the same report."""
    plain = suite_phi_psi(aff1, trials=25, seed=0).to_dict()
    frozen = []
    build = LazyMap.__init__

    def freezing_init(self, source, target, shift, col_fn):
        def col(key):
            vec = col_fn(key)
            vec.coeffs = MappingProxyType(vec.coeffs)
            frozen.append(key)
            return vec

        build(self, source, target, shift, col)

    monkeypatch.setattr(LazyMap, "__init__", freezing_init)
    report = suite_phi_psi(aff1, trials=25, seed=0)
    assert frozen and report.ok
    assert report.to_dict() == plain


def _outcome_of(m, key):
    try:
        return m.column(key)
    except WindowOverflow:
        return WindowOverflow


def end_builders(triple):
    """(name, build) for each End(X) map builder: ``build()`` makes its map
    from fresh operands, on a source map that refuses the window top."""
    A, B, X = triple.A, triple.B, triple.X
    a_vec = GradedVector(A.space, {(0,): 1, (1,): -2})
    b_key = next(k for k in B.space.keys if B.space.degree[k])

    def partial():
        return left_action_map(X, a_vec, 0)

    return [
        ("left_action_map", partial),
        ("EndMaps.d", lambda: EndMaps(X).d(partial())),
        ("BLinearEnds.lmul", lambda: BLinearEnds(A, X).lmul((1,), partial())),
        ("BLinearEnds.rmul", lambda: BLinearEnds(A, X).rmul(partial(), (0,))),
        ("ALinearEnds.lmul", lambda: ALinearEnds(B, X).lmul(b_key, partial())),
        ("ALinearEnds.rmul", lambda: ALinearEnds(B, X).rmul(partial(), b_key)),
        ("EndMaps.d of a right action",
         lambda: EndMaps(X).d(ALinearEnds(B, X).rmul(partial(), b_key))),
    ]


def cone_builders():
    """The same for the maps of the abelian action cone."""
    cone = AbelianActionCone(dom_cap=4, val_cap=6)
    v = GradedVector(cone.val.space, {(): 1, (0,): 3})
    # u -> u^2, covered where the square stays in the window
    square = {u: GradedVector.basis(cone.val.space, u + u)
              for u in cone.dom.space.keys if 2 * len(u) <= cone.val_cap}
    g = GradedMap(cone.dom.space, cone.val.space, 0, square, covered=square)

    def defect():
        return cone._defect(cone._defect(g))

    def act(side):
        m = (v, defect(), cone._rho(v))
        return (cone.lmul((0,), m) if side == "l" else cone.rmul(m, (0,)))[1]

    return [("AbelianActionCone._defect", defect),
            ("AbelianActionCone.lmul", lambda: act("l")),
            ("AbelianActionCone.rmul", lambda: act("r"))]


@pytest.mark.parametrize("lie", ["aff1", "sl2", "heisenberg3"])
def test_lazy_end_maps_match_the_eager_builder(lie, monkeypatch):
    """Each lazy End(X) builder gives, on every key of the X window, the
    column of the eager builder, and refuses exactly the keys eager does
    not cover, again on a second read.  The whole-map readers agree with
    eager, and a lazy map takes no column from outside."""
    triple = LieTriple(getattr(LieAlgebra, lie)(), 4)
    builders = end_builders(triple) + cone_builders()

    def eager(build):
        with monkeypatch.context() as m:
            m.setattr(trio, "guarded_map", eager_guarded_map)
            m.setattr(keller, "guarded_map", eager_guarded_map)
            return build()

    refusals = 0
    for name, build in builders:
        lazy, want = build(), eager(build)
        assert type(lazy) is LazyMap and type(want) is GradedMap, name
        for key in lazy.source.keys:
            got = _outcome_of(lazy, key)
            assert got == _outcome_of(want, key), (name, key)
            assert _outcome_of(lazy, key) == got, (name, key)
            refusals += got is WindowOverflow
        assert lazy.covered == want.covered, name
        fresh = build()
        assert fresh == want and want == fresh and lazy == fresh, name
        assert list(fresh.columns.items()) == list(want.columns.items())
        assert fresh.covered == want.covered and repr(fresh) == repr(want)
        assert fresh.is_zero() == want.is_zero(), name
        for got, ref in ((lazy + build(), want + eager(build)),
                         (build().scale(-2), want.scale(-2))):
            assert got.covered == ref.covered, name
            assert list(got.columns.items()) == list(ref.columns.items())
        if lazy.source is lazy.target:
            got, ref = lazy.compose(build()), want.compose(eager(build))
            assert got.covered == ref.covered, name
            assert list(got.columns.items()) == list(ref.columns.items())
        with pytest.raises(StructuralError):
            build().set_column(lazy.source.keys[0],
                               GradedVector.zero(lazy.target))
    assert refusals


def test_phi_rho_is_mixed_leg_pointwise(sl2):
    triple = LieTriple(sl2, 4)
    rng = random.Random(5)
    a_letters = [k for k in triple.ug.space.keys if len(k) <= 1]
    f = random_cochain(triple.A, triple.A, 1, 0, 9, letters=a_letters,
                       value_keys=[k for k in triple.ug.space.keys
                                   if len(k) <= 2], label="f")
    lhs = phi_embed(rho_a_star(f, triple.X), triple.B)
    rhs = d_ax(f, triple.X, triple.B)
    for _ in range(25):
        aw = (rng.choice(a_letters),)
        xk = rng.choice([k for k in triple.x_space.keys if len(k[0]) <= 1])
        assert lhs.value(aw, xk, ()) == rhs.value(aw, xk, ())


def test_kernel_of_projection_matches_cone_differential(aff1):
    """The projection kernel and the mapping cone have identical columns."""
    triple = LieTriple(aff1, 5)
    a_ops = BimoduleOps.of_algebra(triple.A)
    b_ops = BimoduleOps.of_algebra(triple.B)
    rng = random.Random(7)
    a_letters = [k for k in triple.ug.space.keys if len(k) <= 1]
    x_pool = [k for k in triple.x_space.keys if len(k[0]) <= 1]
    for t in range(6):
        p = rng.randint(0, 1)
        fA = random_cochain(triple.A, triple.A, p, 0, derive_seed("kc", t),
                            letters=[k for k in triple.ug.space.keys
                                     if len(k) <= 2],
                            value_keys=[k for k in triple.ug.space.keys
                                        if len(k) <= 2], label="ka")
        fX = XCochain(triple.A, triple.X, triple.B, p, 0, -1,
                      seed=derive_seed("kx", t), a_letters=a_letters,
                      x_letters=x_pool, b_letters=triple.dual.space.keys,
                      value_keys=[k for k in triple.x_space.keys
                                  if len(k[0]) <= 2], label="kx")
        trio = TrioCochain(fA={(p, 0): fA}, fX={(p, 0, -1): fX})
        d_trio = trio_differential(trio, triple.A, triple.X, triple.B,
                                   a_ops, b_ops)
        # cone convention: (c, d) -> (+(dH+del) c, Phi rho c + (dX) d);
        # the A-leg passes through with a plus sign, and the connecting map
        # is exactly the mixed component
        cone_a = hoch_d(fA, a_ops)
        got_a = d_trio.fA[(p + 1, 0)]
        for _ in range(5):
            w = tuple(rng.choice(a_letters) for _ in range(p + 1))
            assert got_a.value(w) == cone_a.value(w)
        connecting = phi_embed(rho_a_star(fA, triple.X), triple.B)
        got_x = d_trio.fX[(p, 0, 0)]
        for _ in range(5):
            aw = tuple(rng.choice(a_letters) for _ in range(p))
            xk = rng.choice(x_pool)
            want = connecting.value(aw, xk, ()) \
                + del_x(fX).value(aw, xk, ())
            assert got_x.value(aw, xk, ()) == want


def test_window_violations_raise(aff1):
    triple = LieTriple(aff1, 2)
    f = XCochain(triple.A, triple.X, triple.B, 0, 0, 0, seed=1,
                 label="overflow")
    top = ((0, 0), ())
    with pytest.raises(WindowOverflow):
        d_left(f).value(((0,),), top, ())


def test_end_differential_keeps_window_coverage(aff1):
    """Zero End(X) values still go through the actions, so the window
    refusals of the action maps reach the coverage of the result."""
    triple = LieTriple(aff1, 2)
    A, B, X = triple.A, triple.B, triple.X
    top = {k for k in triple.x_space.keys if len(k[0]) == 2}
    f = EndCochain(A, X, 0, 0, label="zero")
    dh = hoch_d(f, BLinearEnds(A, X)).value(((0,),))
    assert dh.is_zero() and dh.covered is not None
    assert top and not top & dh.covered
    assert hoch_partial(f, BLinearEnds(A, X)).value(()).shift == 1
    g = EndCochain(B, X, 2, 0, label="zero")
    empty = g.value_with_slot((), GradedVector.zero(B.space), ((0,),))
    assert empty.is_zero() and empty.shift == 1
    assert hoch_d(g, ALinearEnds(B, X)).value(((0,), (1,), ())).shift == 2


def _outcome(cochain, aw, xk, bw):
    try:
        return cochain.value(aw, xk, bw)
    except WindowOverflow:
        return WindowOverflow


@pytest.mark.parametrize("lie", ["aff1", "sl2"])
def test_flat_word_differentials_match_the_letter_kind_oracle(lie, request):
    """d_left, d_right and del_x read on flat words give the values of the
    letter-kind-by-letter-kind formulas, and refuse the same words."""
    triple = LieTriple(request.getfixturevalue(lie), 4)
    A, X, B = triple.A, triple.X, triple.B
    rng = random.Random(derive_seed("flat", lie))
    whole = (A.space.keys, X.space.keys, B.space.keys)
    # mostly letters of PBW length <= 1, so that products stay in the window
    small = ([k for k in whole[0] if len(k) <= 1],
             [k for k in whole[1] if len(k[0]) <= 1], whole[2])
    narrow = [k for k in whole[1] if len(k[0]) <= 2]

    def letters(kind, n):
        return tuple(rng.choice((whole if rng.random() < 0.2 else small)[kind])
                     for _ in range(n))

    seen = {}
    for p in range(3):
        for q in range(3 - p):
            for r in (-1, 0):
                for value_keys in (None, narrow):
                    fX = XCochain(A, X, B, p, q, r, seed=derive_seed(p, q, r),
                                  value_keys=value_keys, label="flat" + lie)
                    for new, old in ((d_left, old_d_left),
                                     (d_right, old_d_right),
                                     (del_x, old_del_x)):
                        got, want = new(fX), old(fX)
                        assert (got.p, got.q, got.r) == \
                            (want.p, want.q, want.r)
                        for _ in range(6):
                            aw, (xk,), bw = (letters(0, got.p), letters(1, 1),
                                             letters(2, got.q))
                            value = _outcome(got, aw, xk, bw)
                            assert value == _outcome(want, aw, xk, bw), \
                                (new.__name__, p, q, r, aw, xk, bw)
                            kind = ("overflow" if value is WindowOverflow
                                    else "value" if value else "zero")
                            seen[new.__name__, kind] = True
    # every component met non-zero values; refusals were met too
    assert all(seen.get((name, "value")) for name in
               ("d_left", "d_right", "del_x")), seen
    assert seen.get(("d_left", "overflow")) and \
        seen.get(("del_x", "overflow")), seen


@pytest.mark.parametrize("lie", ["aff1", "sl2"])
def test_value_with_slot_is_linear_at_every_flat_position(lie, request):
    triple = LieTriple(request.getfixturevalue(lie), 4)
    A, X, B = triple.A, triple.X, triple.B
    rng = random.Random(derive_seed("slot", lie))
    nonzero = 0
    for p in range(3):
        for q in range(3 - p):
            fX = XCochain(A, X, B, p, q, 0, seed=derive_seed("slot", p, q),
                          label="slot%s" % lie)
            spaces = (A.space,) * p + (X.space,) + (B.space,) * q
            w = tuple(rng.choice(space.keys) for space in spaces)
            for i, space in enumerate(spaces):
                keys = rng.sample(space.keys, 3)
                vec = GradedVector(space, {k: Q(rng.randint(1, 5))
                                           for k in keys})
                want = GradedVector.zero(X.space)
                for k, c in vec.coeffs.items():
                    flat = w[:i] + (k,) + w[i + 1:]
                    want.add_inplace(
                        fX.value(flat[:p], flat[p], flat[p + 1:]), c)
                assert fX.value_with_slot(w[:i], vec, w[i + 1:]) == want
                nonzero += bool(want)
    assert nonzero


# -- the seeded-value memo ---------------------------------------------------

def seeded_words(c):
    """The ``_seeded`` argument tuples of every word of ``c``'s arity over
    the full window, with the letter windows each piece is drawn from."""
    if isinstance(c, XCochain):
        return [((aw, xk, bw), ((c.a_letters, aw), (c.x_letters, (xk,)),
                                (c.b_letters, bw)))
                for aw in product(c.A.space.keys, repeat=c.p)
                for xk in c.X.space.keys
                for bw in product(c.B.space.keys, repeat=c.q)]
    return [((w,), ((c.letters, w),))
            for w in product(c.algebra.space.keys, repeat=c.p)]


def seeded_memo_mismatches(c):
    """The memo entries of ``c`` that differ from a fresh seeded value."""
    fresh = type(c)._seeded.__wrapped__
    return [args for args, got in vars(c).get("_memo__seeded", {}).items()
            if got != fresh(c, *args)]


def test_seeded_memo_matches_uncached(aff1):
    """Every word of a small window gives the fresh seeded value through the
    memo: zero for a letter outside its window, the uncut value restricted
    to ``value_keys`` otherwise, and a second call hands out the stored
    vector.  A stored column is answered before the memo."""
    triple = LieTriple(aff1, 3)
    A, X, B = triple.A, triple.X, triple.B
    a_low = [k for k in A.space.keys if len(k) <= 1]
    x_low = [k for k in X.space.keys if len(k[0]) <= 1]
    b_low = [k for k in B.space.keys if len(k) <= 1]
    pairs = [
        (random_cochain(A, A, 2, 0, 5, letters=a_low, value_keys=a_low),
         random_cochain(A, A, 2, 0, 5, letters=a_low)),
        (random_x_cochain(A, X, B, 1, 1, 0, 5, a_letters=a_low,
                          x_letters=x_low, b_letters=b_low,
                          value_keys=x_low),
         random_x_cochain(A, X, B, 1, 1, 0, 5, a_letters=a_low,
                          x_letters=x_low, b_letters=b_low))]
    for c, uncut in pairs:
        fresh = type(c)._seeded.__wrapped__
        outside = cut = kept = 0
        for args, windows in seeded_words(c):
            got = c.value(*args)
            assert got == fresh(c, *args), args
            assert c.value(*args) is got
            if any(k not in letters for letters, word in windows
                   for k in word):
                assert not got, args
                outside += 1
                continue
            whole = uncut.value(*args).coeffs
            assert got.coeffs == {k: v for k, v in whole.items()
                                  if k in c.value_keys}, args
            cut += len(whole) > len(got.coeffs)
            kept += bool(got)
        assert outside and cut and kept
        assert not seeded_memo_mismatches(c)
    w = ((0,), (1,))
    col = GradedVector.basis(A.space, ())
    stored = Cochain(A, A, 2, 0, columns={w: col}, seed=5, label="f5")
    assert stored.value(w) is col
    assert (w,) not in vars(stored).get("_memo__seeded", {})


def test_seeded_memo_survives_certificate_and_homotopy_sweeps(aff1,
                                                              monkeypatch):
    """After an AC3-shaped row certificate sweep and an AC8-shaped homotopy
    identity sweep, every stored seeded value still equals a fresh one: no
    caller mutated a shared vector."""
    seen = {}
    for cls in (Cochain, XCochain):
        def recording(self, *args, memoized=cls._seeded):
            seen[id(self)] = self
            return memoized(self, *args)
        monkeypatch.setattr(cls, "_seeded", recording)
    triple = LieTriple(aff1, 5)
    for side in ("R", "L"):
        assert row_exactness_certificate(triple, side, 1, 1, 0, seed=7,
                                         n_inputs=30) == []
    assert suite_homotopy_identity(aff1, trials=10, seed=0).ok
    monkeypatch.undo()
    assert {type(c) for c in seen.values()} == {Cochain, XCochain}
    checked = 0
    for c in seen.values():
        assert not seeded_memo_mismatches(c), c.label
        checked += len(vars(c)["_memo__seeded"])
    assert checked
