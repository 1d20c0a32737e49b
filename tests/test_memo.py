"""The per-word memo of the derived cochains (``hochschild.Derived``,
``trio.XDerived``, ``trio.EndCochain`` built from a formula): it agrees
with the formula, it never stores a refusal, and no caller writes into a
value it hands out."""

import random
from types import MappingProxyType

import pytest

from hochduflo.duflo import (DufloContext, duflo_series,
                             lift_central_through_projection, lift_residuals,
                             quadratic_invariant, random_pullback_element,
                             series_contraction)
from hochduflo.exact import (GradedMap, GradedVector, LazyMap, WindowOverflow,
                             derive_seed, key_memo)
from hochduflo.hochschild import (BimoduleOps, Derived, cup, gerstenhaber,
                                  hoch_d, random_cochain)
from hochduflo.keller import LieTriple, row_exactness_certificate
from hochduflo.liealg import LieAlgebra, pbw_map
from hochduflo.suites import suite_hochschild_axioms, suite_phi_psi
from hochduflo.trio import (ALinearEnds, EndCochain, XDerived, d_left,
                            d_right, del_x, phi_embed, psi_embed,
                            random_x_cochain, rho_a_star)

MEMOIZED = (Derived, XDerived, EndCochain)


def same(got, want, x_keys):
    """Equal values; End(X) maps are compared on ``x_keys``, where both
    refuse alike."""
    if not isinstance(got, GradedMap):
        return got == want
    for xk in x_keys:
        try:
            col = want(xk)
        except WindowOverflow:
            with pytest.raises(WindowOverflow):
                got(xk)
            continue
        if got(xk) != col:
            return False
    return True


def check_memo(cochain, reads, x_keys=()):
    """Each read through the memo equals the formula's value, a second read
    returns the same object, and a refused word raises again and leaves
    nothing stored.  Returns the number of refused reads."""
    formula = type(cochain)._value.__wrapped__
    refused = 0
    for args in reads:
        try:
            want = formula(cochain, *args)
        except WindowOverflow:
            for _ in range(2):
                with pytest.raises(WindowOverflow):
                    cochain.value(*args)
            assert args not in cochain.__dict__.get("_memo__value", {})
            refused += 1
            continue
        got = cochain.value(*args)
        assert same(got, want, x_keys), (cochain.label, args)
        assert cochain.value(*args) is got
    return refused


def x_reads(triple, f, rng, n=12):
    """Sampled flat words (aw, xk, bw) of an X-part cochain."""
    a_pool = [k for k in triple.ug.space.keys if len(k) <= 3]
    x_pool = [k for k in triple.x_space.keys if len(k[0]) <= 2]
    b_pool = list(triple.dual.space.keys)
    return [(tuple(rng.choice(a_pool) for _ in range(f.p)),
             rng.choice(x_pool),
             tuple(rng.choice(b_pool) for _ in range(f.q)))
            for _ in range(n)]


def word_reads(letters, p, rng, n=12):
    return [(tuple(rng.choice(letters) for _ in range(p)),) for _ in range(n)]


ALGEBRAS = {"aff1": LieAlgebra.aff1, "sl2": LieAlgebra.sl2,
            "heisenberg3": LieAlgebra.heisenberg3}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_memo_agrees_with_the_formula(name):
    triple = LieTriple(ALGEBRAS[name](), 5)
    A, B, X = triple.A, triple.B, triple.X
    rng = random.Random(derive_seed("memo", name))
    small_a = [k for k in triple.ug.space.keys if len(k) <= 2]
    x_small = [k for k in triple.x_space.keys if len(k[0]) <= 1]
    refused = 0

    # the X-part differentials of the one-sided homotopies
    f = random_x_cochain(A, X, B, 1, 1, 0, derive_seed("memo-fx", name),
                         a_letters=small_a, x_letters=x_small,
                         value_keys=[k for k in triple.x_space.keys
                                     if len(k[0]) <= 3])
    for h in (triple.h_left(f), triple.h_right(f)):
        for g in (h, d_left(h), d_right(h), del_x(h)):
            refused += check_memo(g, x_reads(triple, g, rng))

    # the Hochschild operators on seeded Ug-valued cochains
    ops = BimoduleOps.of_algebra(A)
    fa = random_cochain(A, A, 1, 0, derive_seed("memo-f", name),
                        letters=small_a, value_keys=small_a)
    ga = random_cochain(A, A, 2, 0, derive_seed("memo-g", name),
                        letters=small_a, value_keys=small_a)
    letters = [k for k in triple.ug.space.keys if len(k) <= 3]
    for g in (hoch_d(fa, ops), cup(fa, ga), gerstenhaber(fa, ga)):
        refused += check_memo(g, word_reads(letters, g.p, rng))

    # the curried embeddings of the action pushforward, and the End(X)
    # cochains behind them
    rho = rho_a_star(fa, X)
    refused += check_memo(rho, word_reads(small_a, 1, rng, 4),
                          x_keys=x_small)
    phi = phi_embed(rho, B)
    refused += check_memo(phi, x_reads(triple, phi, rng))
    cols = {(b,): triple.random_alinear_end(len(b), derive_seed(
        "memo-end", name, b), 2) for b in B.space.keys}
    end = hoch_d(EndCochain(B, X, 1, 0, columns=cols, label="e"),
                 ALinearEnds(B, X))
    psi = psi_embed(end, A)
    refused += check_memo(psi, x_reads(triple, psi, rng))
    refused += check_memo(end, word_reads(list(B.space.keys), 2, rng, 4),
                          x_keys=x_small)
    assert refused


def freeze(value):
    """Make a shared value read-only in place: a vector's coefficients and
    an eager map's columns become read-only mappings.  A lazy map's
    columns read so far are frozen, and each later column as it is
    computed.  Returns whether anything was frozen."""
    if isinstance(value, GradedVector):
        if isinstance(value.coeffs, dict):
            value.coeffs = MappingProxyType(value.coeffs)
        return True
    if isinstance(value, LazyMap):
        for col in value._read.values():
            freeze(col)
        col_fn = value._col_fn
        if col_fn is not None:
            def frozen_column(key):
                col = col_fn(key)
                freeze(col)
                return col

            value._col_fn = frozen_column
        return True
    if isinstance(value, GradedMap):
        for col in value.columns.values():
            freeze(col)
        if isinstance(value.columns, dict):
            value.columns = MappingProxyType(value.columns)
        return True
    return False


def lift_and_residuals():
    """The endgame's lift on heisenberg3, whose absorber adds into the f_B
    columns it reads, and its residual sweep, as plain values."""
    g = LieAlgebra.heisenberg3()
    ctx = DufloContext(g, pbw_cap=6, sym_cap=4)
    _J, Js = duflo_series(g, 4)
    u0 = pbw_map(ctx.sym, ctx.ug, series_contraction(
        ctx.sym, Js, quadratic_invariant(g, ctx.sym)))
    comps, fB = lift_central_through_projection(ctx, u0, depth=5)
    x_keys = [k for k in ctx.X.space.keys if len(k[0]) + len(k[1]) <= 2]
    return (sorted((q, bw, y, sorted(v.coeffs.items()))
                   for q, c in comps.items() for bw, s in c.columns.items()
                   for y, v in s.gen.items()),
            sorted((k, bw, sorted(v.coeffs.items()))
                   for k, f in fB.items() for bw, v in f.columns.items()),
            [bad[:4] + (sorted(bad[4].coeffs.items()),)
             for bad in lift_residuals(ctx, u0, comps, fB, x_keys)])


def run_consumers():
    """The suites, one homotopy identity, one row certificate and the Duflo
    lift with its residuals, as plain values to compare."""
    aff1 = LieAlgebra.aff1()
    ctx = DufloContext(LieAlgebra.sl2(), pbw_cap=8, sym_cap=4)
    e = random_pullback_element(ctx, 2, derive_seed("memo-hi", 1))
    residual = ctx.homotopy_identity_residual(e, 2)
    return {
        "lift": lift_and_residuals(),
        "hochschild-axioms": suite_hochschild_axioms(
            aff1, max_arity=4, trials=40, seed=1).to_dict(),
        "phi-psi": suite_phi_psi(aff1, trials=15, seed=1).to_dict(),
        "homotopy-identity": sorted(
            (k, sorted(v.items())) for k, v in residual.columns.items()),
        "row-certificate": row_exactness_certificate(
            LieTriple(LieAlgebra.heisenberg3(), 5), "R", 1, 1, 0, 1,
            n_inputs=40),
    }


def test_no_caller_mutates_a_memoized_value(monkeypatch):
    """Every memoized value is handed out shared, so no caller may write
    into one: with each of them frozen, every consumer gives the same
    result."""
    plain = run_consumers()
    frozen = {cls.__name__: 0 for cls in MEMOIZED}

    def freezing(cls):
        formula = cls._value.__wrapped__

        @key_memo
        def _value(self, *args):
            got = formula(self, *args)
            frozen[cls.__name__] += freeze(got)
            return got

        return _value

    for cls in MEMOIZED:
        monkeypatch.setattr(cls, "_value", freezing(cls))
    assert run_consumers() == plain
    assert all(frozen.values()), frozen
