"""Hochschild complexes of dg bimodules: the semidirect algebra and the trio.

For a dg A-B-bimodule X, cochains split into an A-part, an X-part (maps
A^{(x)p} (x) X (x) B^{(x)q} -> X of degree r, total degree p+q+r+1) and a
B-part.  This module implements the semidirect dg algebra on A + X + B, the
component differentials of the trio complex, the structure-preserving
projections, and the curried embeddings of endomorphism-valued cochains into
the X-part.
"""

from __future__ import annotations

from .signs import sgn
from .exact import (ZERO, BasisSpace, GradedMap, GradedVector,
                    StructuralError, guarded_map, key_memo)
from .hochschild import (Cochain, DgAlgebra, WordCochain, add_cochain,
                         hoch_d, hoch_partial, kept_keys, seeded_value)


class Bimodule:
    """The dg Ug-S(g[1])^-bimodule X = Ug (x) S(g[1]) on a window.

    Its keys are pairs (u, x); ``lmul_key`` and ``rmul_key`` act on one
    key.  The vector actions follow the tensor layout: ``lmul`` multiplies
    only the Ug factor (``ug.mul_keys``), ``rmul`` contracts only the
    S(g[1]) factor (``odd.contract_key``), and each adds its products
    straight into one output dict: by key of v, then by term of its product.
    """

    def __init__(self, space: BasisSpace, ug, odd, lmul_key, rmul_key,
                 differential_key):
        self.space, self.name = space, space.name
        self.ug, self.odd = ug, odd
        self.lmul_key = lmul_key        # (a_key, x_key) -> X-vector
        self.rmul_key = rmul_key        # (x_key, b_key) -> X-vector
        self.differential_key = self.d_key = differential_key

    def lmul(self, a_key, v: GradedVector) -> GradedVector:
        out = GradedVector.zero(self.space)
        acc, mul = out.coeffs, self.ug.mul_keys
        for (u, x), c in v.coeffs.items():
            for k, d in mul(a_key, u).coeffs.items():
                s = acc.get((k, x), ZERO) + c * d
                if s:
                    acc[(k, x)] = s
                else:
                    del acc[(k, x)]
        return out

    def rmul(self, v: GradedVector, b_key) -> GradedVector:
        out = GradedVector.zero(self.space)
        acc, contract = out.coeffs, self.odd.contract_key
        for (u, x), c in v.coeffs.items():
            for k, d in contract(x, b_key).coeffs.items():
                s = acc.get((u, k), ZERO) + c * d
                if s:
                    acc[(u, k)] = s
                else:
                    del acc[(u, k)]
        return out

    def d_vec(self, v: GradedVector) -> GradedVector:
        out = GradedVector.zero(self.space)
        for k, c in v.coeffs.items():
            out.add_inplace(self.d_key(k), c)
        return out


def semidirect_algebra(A: DgAlgebra, X: Bimodule, B: DgAlgebra) -> DgAlgebra:
    """The dg algebra on A + X + B with X.X = 0 and A.B = 0."""
    items = []
    for k in A.space.keys:
        items.append((("A", k), A.space.degree[k]))
    for k in X.space.keys:
        items.append((("X", k), X.space.degree[k]))
    for k in B.space.keys:
        items.append((("B", k), B.space.degree[k]))
    space = BasisSpace("%s|x|%s|x|%s" % (A.name, X.name, B.name), items)

    def lift(tag, vec):
        out = GradedVector.zero(space)
        for k, c in vec.coeffs.items():
            out.coeffs[(tag, k)] = c
        return out

    def mul_keys(k1, k2):
        t1, a = k1
        t2, b = k2
        if t1 == "A" and t2 == "A":
            return lift("A", A.mul_keys(a, b))
        if t1 == "B" and t2 == "B":
            return lift("B", B.mul_keys(a, b))
        if t1 == "A" and t2 == "X":
            return lift("X", X.lmul_key(a, b))
        if t1 == "X" and t2 == "B":
            return lift("X", X.rmul_key(a, b))
        return GradedVector.zero(space)

    def differential_key(key):
        tag, k = key
        if tag == "A":
            return lift("A", A.d_key(k))
        if tag == "B":
            return lift("B", B.d_key(k))
        return lift("X", X.d_key(k))

    alg = DgAlgebra(space, ("A", A.unit_key), mul_keys, differential_key,
                    name=space.name)
    alg.lift = lift
    alg.parts = {"A": A, "X": X, "B": B}
    return alg


# ---------------------------------------------------------------------------
# X-part cochains
# ---------------------------------------------------------------------------

class XCochain:
    """Component of the trio complex: Hom^r(A^{(x)p} (x) X (x) B^{(x)q}, X).

    The X-part of the Hochschild complex of the semidirect algebra A + X + B
    (Keller 2003): its words are the flat words w = a_1..a_p x b_1..b_q with
    exactly one X letter, at index p.  ``value`` takes a word in its three
    pieces (a_word, x_key, b_word); ``value_with_slot`` and the component
    differentials read it flat.  Values outside the stored columns are zero
    unless a seed is present (deterministic random values, restricted to the
    given letter windows, drawn once per word and memoized on the instance;
    like the stored columns they are handed out shared and read-only).
    """

    def __init__(self, A: DgAlgebra, X: Bimodule, B: DgAlgebra,
                 p: int, q: int, r: int, columns=None, seed=None,
                 a_letters=None, x_letters=None, b_letters=None,
                 value_keys=None, label=""):
        self.A, self.X, self.B = A, X, B
        self.p, self.q, self.r = p, q, r
        self.columns = dict(columns or {})
        self.seed = seed
        self.a_letters = frozenset(a_letters) if a_letters is not None else None
        self.x_letters = frozenset(x_letters) if x_letters is not None else None
        self.b_letters = frozenset(b_letters) if b_letters is not None else None
        self.value_keys = frozenset(value_keys) if value_keys is not None else None
        self.label = label

    def pieces(self, aw, bw):
        """The A- and B-letters as tuples, checked against the tridegree."""
        aw, bw = tuple(aw), tuple(bw)
        if len(aw) != self.p or len(bw) != self.q:
            raise StructuralError("tridegree mismatch in %s" % (self.label,))
        return aw, bw

    def value(self, aw, xk, bw) -> GradedVector:
        aw, bw = self.pieces(aw, bw)
        got = self.columns.get((aw, xk, bw))
        if got is not None:
            return got
        if self.seed is None:
            return GradedVector.zero(self.X.space)
        return self._seeded(aw, xk, bw)

    @key_memo
    def _seeded(self, aw, xk, bw) -> GradedVector:
        """The seeded value on the word (aw, xk, bw), drawn once per
        cochain."""
        return seeded_value(
            self.X.space, self.r, self._kept,
            ((self.a_letters, self.A.space, aw),
             (self.x_letters, self.X.space, (xk,)),
             (self.b_letters, self.B.space, bw)),
            (self.label, self.seed, aw, xk, bw))

    @key_memo
    def _kept(self, deg):
        return kept_keys(self.X.space, deg, self.value_keys)

    def value_with_slot(self, before, vec: GradedVector,
                        after) -> GradedVector:
        """Multilinear evaluation on the flat words before + (k,) + after."""
        out = GradedVector.zero(self.X.space)
        before, after, p = tuple(before), tuple(after), self.p
        if len(before) == p:
            # the slot is the X letter: the pieces are already split
            for k, c in vec.coeffs.items():
                out.add_inplace(self.value(before, k, after), c)
            return out
        for k, c in vec.coeffs.items():
            w = before + (k,) + after
            out.add_inplace(self.value(w[:p], w[p], w[p + 1:]), c)
        return out

    def derived(self, p, q, r, fn, label) -> "XDerived":
        return XDerived(self.A, self.X, self.B, p, q, r, fn, label=label)


class XDerived(XCochain):
    """X-part cochain evaluated on demand from ``fn(aw, xk, bw)``, once per
    word: ``_value`` memoizes it per instance like ``hochschild.Derived``,
    so readers share one read-only vector and a refusal is never stored."""

    def __init__(self, A, X, B, p, q, r, fn, label=""):
        super().__init__(A, X, B, p, q, r, label=label)
        self._fn = fn

    def value(self, aw, xk, bw):
        aw, bw = self.pieces(aw, bw)
        return self._value(aw, xk, bw)

    @key_memo
    def _value(self, aw, xk, bw):
        """The value on the word (aw, xk, bw), computed once per cochain."""
        return self._fn(aw, xk, bw)


def random_x_cochain(A, X, B, p, q, r, seed, a_letters=None, x_letters=None,
                     b_letters=None, value_keys=None, label="fx") -> XCochain:
    return XCochain(A, X, B, p, q, r, seed=seed, a_letters=a_letters,
                    x_letters=x_letters, b_letters=b_letters,
                    value_keys=value_keys, label="%s%d" % (label, seed))


# ---------------------------------------------------------------------------
# component differentials
# ---------------------------------------------------------------------------

def d_ax(fA: Cochain, X: Bimodule, B: DgAlgebra) -> XCochain:
    """d of the A-part into the X-part: (a_1..a_p; x) -> (-1)^r f(a..) . x."""
    p, r = fA.p, fA.r

    def fn(aw, xk, bw):
        head = fA.value(aw)
        out = GradedVector.zero(X.space)
        for k, c in head.coeffs.items():
            out.add_inplace(X.lmul_key(k, xk), c)
        return out.scale(sgn(r))

    return XDerived(fA.algebra, X, B, p, 0, r, fn, label="dAX(%s)" % fA.label)


def d_xb(fB: Cochain, A: DgAlgebra, X: Bimodule) -> XCochain:
    """d of the B-part into the X-part with sign (-1)^{q+r-1+r|x|}."""
    q, r = fB.p, fB.r

    def fn(aw, xk, bw):
        tail = fB.value(bw)
        out = GradedVector.zero(X.space)
        for k, c in tail.coeffs.items():
            out.add_inplace(X.rmul_key(xk, k), c)
        return out.scale(sgn(q + r - 1 + r * X.space.degree[xk]))

    return XDerived(A, X, fB.algebra, 0, q, r, fn, label="dXB(%s)" % fB.label)


# d_left and d_right are the Hochschild differential of the semidirect
# algebra on the flat words with one X letter: d_left has the outer action
# of a_1 and the adjacent products up to a.x, d_right the adjacent products
# from x.b on and the outer action of b_q.

def _add_adjacent_products(out, fX: XCochain, aw, xk, bw, pairs):
    """out += sgn(p+q+r+i+1) fX(w_0..(w_i w_{i+1})..) for i in ``pairs``.

    w = aw + (xk,) + bw is the flat word, with its X letter at index x =
    len(aw); the pair (w_i, w_{i+1}) multiplies in A, as a.x, as x.b or in
    B.
    """
    A, X, B = fX.A, fX.X, fX.B
    w, x = aw + (xk,) + bw, len(aw)
    s = fX.p + fX.q + fX.r + 1
    for i in pairs:
        if i < x - 1:
            prod = A.mul_keys(w[i], w[i + 1])
        elif i == x - 1:
            prod = X.lmul_key(w[i], w[i + 1])
        elif i == x:
            prod = X.rmul_key(w[i], w[i + 1])
        else:
            prod = B.mul_keys(w[i], w[i + 1])
        if prod:
            out.add_inplace(fX.value_with_slot(w[:i], prod, w[i + 2:]),
                            sgn(s + i))


def d_left(fX: XCochain) -> XCochain:
    """The left Hochschild component, raising the A-arity by one."""
    A, X = fX.A, fX.X
    p, q, r = fX.p, fX.q, fX.r

    def fn(aw, xk, bw):
        out = GradedVector.zero(X.space)
        head = fX.value(aw[1:], xk, bw)
        if head:
            out.add_inplace(X.lmul(aw[0], head),
                            sgn(p + q + r + r * A.space.degree[aw[0]]))
        _add_adjacent_products(out, fX, aw, xk, bw, range(p + 1))
        return out

    return fX.derived(p + 1, q, r, fn, "dL(%s)" % fX.label)


def d_right(fX: XCochain) -> XCochain:
    """The right Hochschild component, raising the B-arity by one."""
    X = fX.X
    p, q, r = fX.p, fX.q, fX.r

    def fn(aw, xk, bw):
        out = GradedVector.zero(X.space)
        _add_adjacent_products(out, fX, aw, xk, bw, range(p, p + q + 1))
        tail = fX.value(aw, xk, bw[:-1])
        if tail:
            out.add_inplace(X.rmul(tail, bw[-1]), sgn(r))
        return out

    return fX.derived(p, q + 1, r, fn, "dR(%s)" % fX.label)


def del_x(fX: XCochain) -> XCochain:
    """The differential induced by d_A, d_X, d_B on the X-part."""
    X = fX.X
    p, q, r = fX.p, fX.q, fX.r
    parts = (fX.A,) * p + (X,) + (fX.B,) * q

    def fn(aw, xk, bw):
        out = GradedVector.zero(X.space)
        head = fX.value(aw, xk, bw)
        if head:
            out.add_inplace(X.d_vec(head))
        w = aw + (xk,) + bw
        acc = 0
        for i, (part, k) in enumerate(zip(parts, w)):
            if part.differential_key is not None:
                dk = part.d_key(k)
                if dk:
                    out.add_inplace(fX.value_with_slot(w[:i], dk, w[i + 1:]),
                                    -sgn(r + acc))
            acc += part.space.degree[k]
        return out

    return fX.derived(p, q, r + 1, fn, "delX(%s)" % fX.label)


def add_x_differential(table, fX: XCochain):
    """``table += (d_left + d_right + del_x)(fX)``, keyed by (p, q, r)."""
    p, q, r = fX.p, fX.q, fX.r
    add_cochain(table, (p + 1, q, r), d_left(fX))
    add_cochain(table, (p, q + 1, r), d_right(fX))
    add_cochain(table, (p, q, r + 1), del_x(fX))


# ---------------------------------------------------------------------------
# trio cochains and the full differential
# ---------------------------------------------------------------------------

class TrioCochain:
    """An element of the trio complex, stored componentwise.

    ``fA`` maps (p, r) to A-valued cochains over A, ``fX`` maps (p, q, r) to
    X-part cochains, ``fB`` maps (q, r) to B-valued cochains over B.
    """

    def __init__(self, fA=None, fX=None, fB=None):
        self.fA = dict(fA or {})
        self.fX = dict(fX or {})
        self.fB = dict(fB or {})


def trio_differential(t: TrioCochain, A: DgAlgebra, X: Bimodule,
                      B: DgAlgebra, a_ops, b_ops) -> TrioCochain:
    """The trio differential, assembled from the component formulas.

    ``a_ops`` / ``b_ops`` are the BimoduleOps of A and B acting on
    themselves (for the pure Hochschild parts).
    """
    out = TrioCochain()
    for (p, r), f in sorted(t.fA.items()):
        add_cochain(out.fA, (p + 1, r), hoch_d(f, a_ops))
        add_cochain(out.fA, (p, r + 1), hoch_partial(f, a_ops))
        add_cochain(out.fX, (p, 0, r), d_ax(f, X, B))
    for (q, r), f in sorted(t.fB.items()):
        add_cochain(out.fB, (q + 1, r), hoch_d(f, b_ops))
        add_cochain(out.fB, (q, r + 1), hoch_partial(f, b_ops))
        add_cochain(out.fX, (0, q, r), d_xb(f, A, X))
    for _, f in sorted(t.fX.items()):
        add_x_differential(out.fX, f)
    return out


def embed_trio(t: TrioCochain, E: DgAlgebra, arity: int, degree_r: int) -> Cochain:
    """Embedding into the Hochschild complex of the semidirect algebra.

    An A-part (p, r) lands at ambient bidegree (p, r), a B-part (q, r) at
    (q, r), and an X-part (p, q, r) at (p+q+1, r).
    """
    from .hochschild import Derived
    A = E.parts["A"]
    X = E.parts["X"]
    B = E.parts["B"]

    def fn(word):
        out = GradedVector.zero(E.space)
        tags = [k[0] for k in word]
        keys = [k[1] for k in word]
        if all(tag == "A" for tag in tags):
            f = t.fA.get((arity, degree_r))
            if f is not None:
                out.add_inplace(E.lift("A", f.value(tuple(keys))))
        if all(tag == "B" for tag in tags):
            f = t.fB.get((arity, degree_r))
            if f is not None:
                out.add_inplace(E.lift("B", f.value(tuple(keys))))
        if tags.count("X") == 1:
            ix = tags.index("X")
            if all(tag == "A" for tag in tags[:ix]) and \
               all(tag == "B" for tag in tags[ix + 1:]):
                p, q = ix, arity - ix - 1
                f = t.fX.get((p, q, degree_r))
                if f is not None:
                    out.add_inplace(E.lift("X", f.value(tuple(keys[:ix]),
                                                        keys[ix],
                                                        tuple(keys[ix + 1:]))))
        return out

    return Derived(E, E, arity, degree_r, fn, label="embed")


def project_a(F: Cochain, A: DgAlgebra, E: DgAlgebra) -> Cochain:
    """pi_A of an ambient cochain: restrict to pure A-words, project values."""
    from .hochschild import Derived

    def fn(word):
        val = F.value(tuple(("A", k) for k in word))
        out = GradedVector.zero(A.space)
        for (tag, k), c in val.coeffs.items():
            if tag == "A":
                out.add_term(k, c)
        return out

    return Derived(A, A, F.p, F.r, fn, label="piA(%s)" % F.label)


def project_b(F: Cochain, B: DgAlgebra, E: DgAlgebra) -> Cochain:
    from .hochschild import Derived

    def fn(word):
        val = F.value(tuple(("B", k) for k in word))
        out = GradedVector.zero(B.space)
        for (tag, k), c in val.coeffs.items():
            if tag == "B":
                out.add_term(k, c)
        return out

    return Derived(B, B, F.p, F.r, fn, label="piB(%s)" % F.label)


# ---------------------------------------------------------------------------
# endomorphism-valued cochains and the curried embeddings
# ---------------------------------------------------------------------------

class EndCochain(WordCochain):
    """Hom^r(A^{(x)p}, End(X))-cochain with GradedMap values.

    Used for cochains valued in the right-B-linear or left-A-linear
    endomorphisms; values outside stored columns are zero.  A cochain built
    from a formula (``fn``) computes its value once per word: ``_value``
    memoizes it per instance, readers share the map and only read it, and a
    refusal is raised again, never stored.
    """

    def __init__(self, A: DgAlgebra, X: Bimodule, p: int, r: int,
                 columns=None, label="", fn=None):
        self.algebra, self.X = A, X
        self.values = EndMaps(X)
        self.p, self.r = p, r
        self.columns = dict(columns or {})
        self.label = label
        self._fn = fn

    def value(self, word) -> GradedMap:
        word = tuple(word)
        if len(word) != self.p:
            raise StructuralError("arity mismatch in %s" % self.label)
        if self._fn is not None:
            return self._value(word)
        got = self.columns.get(word)
        if got is not None:
            return got
        return self.values.zero(self.r + self.algebra.word_degree(word))

    @key_memo
    def _value(self, word) -> GradedMap:
        """The value of ``fn`` on ``word``, computed once per cochain."""
        return self._fn(word)

    def derived(self, p, r, fn, label) -> "EndCochain":
        return EndCochain(self.algebra, self.X, p, r, label=label, fn=fn)


class EndMaps:
    """End(X): the GradedMaps X -> X, with the differential [d_X, -].

    ``zero``, ``add``, ``scale`` and ``d`` of the value-module protocol of
    :func:`hochschild.hoch_d`; the two subclasses add the actions.  Sums
    and scalings are lazy maps like the actions: column k of ``add(phi,
    psi)`` is phi's column k plus psi's, read when k is first read, and a
    key refused by either operand stays refused.
    """

    def __init__(self, X: Bimodule):
        self.X = X

    def zero(self, degree) -> GradedMap:
        return GradedMap.zero(self.X.space, self.X.space, degree)

    @staticmethod
    def add(phi: GradedMap, psi: GradedMap) -> GradedMap:
        if (phi.source is not psi.source or phi.target is not psi.target
                or phi.shift != psi.shift):
            raise StructuralError("incompatible maps")
        return guarded_map(phi.source, phi.target, phi.shift,
                           lambda k: phi.column(k) + psi.column(k))

    @staticmethod
    def scale(phi: GradedMap, c) -> GradedMap:
        return guarded_map(phi.source, phi.target, phi.shift,
                           lambda k: phi.column(k).scale(c))

    def d(self, phi: GradedMap) -> GradedMap:
        X = self.X
        return guarded_map(
            X.space, X.space, phi.shift + 1,
            lambda k: X.d_vec(phi.column(k))
            - phi(X.d_key(k)).scale(sgn(phi.shift)))


class BLinearEnds(EndMaps):
    """End(X) as an A-bimodule: a.phi = lmul after phi, phi.a = phi after lmul.

    The values of A-cochains valued in the right-B-linear endomorphisms.
    """

    def __init__(self, A: DgAlgebra, X: Bimodule):
        super().__init__(X)
        self.A = A

    def lmul(self, a_key, phi: GradedMap) -> GradedMap:
        X = self.X
        return guarded_map(
            X.space, X.space, phi.shift + self.A.space.degree[a_key],
            lambda k: X.lmul(a_key, phi.column(k)))

    def rmul(self, phi: GradedMap, a_key) -> GradedMap:
        X = self.X
        return guarded_map(
            X.space, X.space, phi.shift + self.A.space.degree[a_key],
            lambda k: phi(X.lmul_key(a_key, k)))


class ALinearEnds(EndMaps):
    """End(X) as a B-bimodule through the twisted right actions.

    The values of B-cochains valued in the left-A-linear endomorphisms.
    """

    def __init__(self, B: DgAlgebra, X: Bimodule):
        super().__init__(X)
        self.B = B

    def lmul(self, b_key, phi: GradedMap) -> GradedMap:
        # (b.phi)(x) = (-1)^{|b|(|phi|+|x|)} phi(x.b)
        X = self.X
        bdeg = self.B.space.degree[b_key]
        return guarded_map(
            X.space, X.space, phi.shift + bdeg,
            lambda k: phi(X.rmul_key(k, b_key)).scale(
                sgn(bdeg * (phi.shift + X.space.degree[k]))))

    def rmul(self, phi: GradedMap, b_key) -> GradedMap:
        # (phi.b)(x) = (-1)^{|b||x|} phi(x).b
        X = self.X
        bdeg = self.B.space.degree[b_key]
        return guarded_map(
            X.space, X.space, phi.shift + bdeg,
            lambda k: X.rmul(phi.column(k), b_key).scale(
                sgn(bdeg * X.space.degree[k])))


def phi_embed(f: EndCochain, B: DgAlgebra) -> XCochain:
    """Phi: curry an End-valued A-cochain into the X-part, with sign (-1)^r."""
    A, X = f.algebra, f.X
    p, r = f.p, f.r

    def fn(aw, xk, bw):
        return f.value(aw)(xk).scale(sgn(r))

    return XDerived(A, X, B, p, 0, r, fn, label="Phi(%s)" % f.label)


def psi_embed(f: EndCochain, A: DgAlgebra) -> XCochain:
    """Psi into the X-part: (x; b_1..b_q) -> signed f(b_1..b_q)(x)."""
    B, X = f.algebra, f.X
    q, r = f.p, f.r

    def fn(aw, xk, bw):
        phi = f.value(bw)
        s = sgn(q + r - 1 + X.space.degree[xk]
                * sum(B.space.degree[k] for k in bw))
        return phi(xk).scale(s)

    return XDerived(A, X, B, 0, q, r, fn, label="Psi(%s)" % f.label)


def left_action_map(X: Bimodule, a_vec: GradedVector, shift: int) -> GradedMap:
    """Left multiplication by ``a_vec`` on X, of degree ``shift``.

    Left multiplication grows the PBW filtration, so the map covers only the
    keys whose product stays in the window.
    """
    def column(k):
        col = GradedVector.zero(X.space)
        for ak, c in a_vec.coeffs.items():
            col.add_inplace(X.lmul_key(ak, k), c)
        return col

    return guarded_map(X.space, X.space, shift, column)


def rho_a_star(fA: Cochain, X: Bimodule) -> EndCochain:
    """Post-compose values with the left action rho_A."""
    def fn(word):
        wdeg = sum(fA.algebra.space.degree[k] for k in word)
        return left_action_map(X, fA.value(word), fA.r + wdeg)

    return EndCochain(fA.algebra, X, fA.p, fA.r, label="rhoA*(%s)" % fA.label,
                      fn=fn)
