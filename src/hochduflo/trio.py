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
from .exact import (BasisSpace, GradedMap, GradedVector, StructuralError,
                    derive_seed, random_vector)
from .hochschild import (Cochain, DgAlgebra, WordCochain, add_cochain,
                         hoch_d, hoch_partial)


class Bimodule:
    """Presentation of a dg A-B-bimodule X on a window."""

    def __init__(self, space: BasisSpace, lmul_key, rmul_key,
                 differential_key=None, name=None):
        self.space = space
        self.lmul_key = lmul_key        # (a_key, x_key) -> X-vector
        self.rmul_key = rmul_key        # (x_key, b_key) -> X-vector
        self.differential_key = differential_key
        self.name = name or space.name

    def lmul(self, a_key, v: GradedVector) -> GradedVector:
        out = GradedVector.zero(self.space)
        for k, c in v.coeffs.items():
            out.add_inplace(self.lmul_key(a_key, k), c)
        return out

    def rmul(self, v: GradedVector, b_key) -> GradedVector:
        out = GradedVector.zero(self.space)
        for k, c in v.coeffs.items():
            out.add_inplace(self.rmul_key(k, b_key), c)
        return out

    def d_key(self, key) -> GradedVector:
        if self.differential_key is None:
            return GradedVector.zero(self.space)
        return self.differential_key(key)

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

    Words are triples (a_word, x_key, b_word); values outside the stored
    columns are zero unless a seed is present (deterministic random values,
    restricted to the given letter windows).
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

    @property
    def total_degree(self) -> int:
        return self.p + self.q + self.r + 1

    def word_degree(self, aw, xk, bw) -> int:
        return (sum(self.A.space.degree[k] for k in aw)
                + self.X.space.degree[xk]
                + sum(self.B.space.degree[k] for k in bw))

    def value(self, aw, xk, bw) -> GradedVector:
        aw, bw = tuple(aw), tuple(bw)
        if len(aw) != self.p or len(bw) != self.q:
            raise StructuralError("tridegree mismatch in %s" % (self.label,))
        got = self.columns.get((aw, xk, bw))
        if got is not None:
            return got
        if self.seed is None:
            return GradedVector.zero(self.X.space)
        if self.a_letters is not None and any(k not in self.a_letters for k in aw):
            return GradedVector.zero(self.X.space)
        if self.x_letters is not None and xk not in self.x_letters:
            return GradedVector.zero(self.X.space)
        if self.b_letters is not None and any(k not in self.b_letters for k in bw):
            return GradedVector.zero(self.X.space)
        deg = self.word_degree(aw, xk, bw) + self.r
        vec = random_vector(self.X.space, deg,
                            derive_seed(self.label, self.seed, aw, xk, bw))
        if self.value_keys is not None:
            vec = GradedVector(self.X.space,
                               {k: c for k, c in vec.coeffs.items()
                                if k in self.value_keys})
        return vec

    def value_a_slot(self, aw_before, vec, aw_after, xk, bw) -> GradedVector:
        out = GradedVector.zero(self.X.space)
        for k, c in vec.coeffs.items():
            out.add_inplace(self.value(tuple(aw_before) + (k,) + tuple(aw_after),
                                       xk, bw), c)
        return out

    def value_x_slot(self, aw, vec, bw) -> GradedVector:
        out = GradedVector.zero(self.X.space)
        for k, c in vec.coeffs.items():
            out.add_inplace(self.value(aw, k, bw), c)
        return out

    def value_b_slot(self, aw, xk, bw_before, vec, bw_after) -> GradedVector:
        out = GradedVector.zero(self.X.space)
        for k, c in vec.coeffs.items():
            out.add_inplace(self.value(aw, xk,
                                       tuple(bw_before) + (k,) + tuple(bw_after)), c)
        return out


class XDerived(XCochain):
    def __init__(self, A, X, B, p, q, r, fn, label=""):
        super().__init__(A, X, B, p, q, r, label=label)
        self._fn = fn

    def value(self, aw, xk, bw):
        aw, bw = tuple(aw), tuple(bw)
        if len(aw) != self.p or len(bw) != self.q:
            raise StructuralError("tridegree mismatch in %s" % (self.label,))
        return self._fn(aw, xk, bw)


def add_x_part(table, key, part: XCochain):
    """``table[key] += part`` for X-part cochains keyed by (p, q, r)."""
    prev = table.get(key)
    if prev is None:
        table[key] = part
        return
    table[key] = XDerived(part.A, part.X, part.B, *key,
                          lambda aw, xk, bw: prev.value(aw, xk, bw)
                          + part.value(aw, xk, bw), label="sum")


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


def d_left(fX: XCochain) -> XCochain:
    """The left Hochschild component, raising the A-arity by one."""
    A, X, B = fX.A, fX.X, fX.B
    p, q, r = fX.p, fX.q, fX.r

    def fn(aw, xk, bw):
        out = GradedVector.zero(X.space)
        a0 = aw[0]
        head = fX.value(aw[1:], xk, bw)
        if head:
            out.add_inplace(X.lmul(a0, head),
                            sgn(p + q + r + r * A.space.degree[a0]))
        for i in range(p):
            prod = A.mul_keys(aw[i], aw[i + 1])
            if prod:
                out.add_inplace(fX.value_a_slot(aw[:i], prod, aw[i + 2:], xk, bw),
                                sgn(p + q + r + i + 1))
        last = X.lmul_key(aw[-1], xk)
        if last:
            out.add_inplace(fX.value_x_slot(aw[:-1], last, bw), sgn(q + r + 1))
        return out

    return XDerived(A, X, B, p + 1, q, r, fn, label="dL(%s)" % fX.label)


def d_right(fX: XCochain) -> XCochain:
    """The right Hochschild component, raising the B-arity by one."""
    A, X, B = fX.A, fX.X, fX.B
    p, q, r = fX.p, fX.q, fX.r

    def fn(aw, xk, bw):
        out = GradedVector.zero(X.space)
        first = X.rmul_key(xk, bw[0])
        if first:
            out.add_inplace(fX.value_x_slot(aw, first, bw[1:]), sgn(q + r - 1))
        for j in range(q):
            prod = B.mul_keys(bw[j], bw[j + 1])
            if prod:
                out.add_inplace(fX.value_b_slot(aw, xk, bw[:j], prod, bw[j + 2:]),
                                sgn(q + r + j))
        tail = fX.value(aw, xk, bw[:-1])
        if tail:
            out.add_inplace(X.rmul(tail, bw[-1]), sgn(r))
        return out

    return XDerived(A, X, B, p, q + 1, r, fn, label="dR(%s)" % fX.label)


def del_x(fX: XCochain) -> XCochain:
    """The differential induced by d_A, d_X, d_B on the X-part."""
    A, X, B = fX.A, fX.X, fX.B
    p, q, r = fX.p, fX.q, fX.r

    def fn(aw, xk, bw):
        out = GradedVector.zero(X.space)
        head = fX.value(aw, xk, bw)
        if head:
            out.add_inplace(X.d_vec(head))
        acc = 0
        if A.differential_key is not None:
            for i in range(p):
                da = A.d_key(aw[i])
                if da:
                    out.add_inplace(
                        fX.value_a_slot(aw[:i], da, aw[i + 1:], xk, bw),
                        -sgn(r + acc))
                acc += A.space.degree[aw[i]]
        else:
            acc = sum(A.space.degree[k] for k in aw)
        dx = X.d_key(xk)
        if dx:
            out.add_inplace(fX.value_x_slot(aw, dx, bw), -sgn(r + acc))
        acc += X.space.degree[xk]
        if B.differential_key is not None:
            for j in range(q):
                db = B.d_key(bw[j])
                if db:
                    out.add_inplace(
                        fX.value_b_slot(aw, xk, bw[:j], db, bw[j + 1:]),
                        -sgn(r + acc))
                acc += B.space.degree[bw[j]]
        return out

    return XDerived(A, X, B, p, q, r + 1, fn, label="delX(%s)" % fX.label)


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

    def components(self):
        return (sorted(self.fA), sorted(self.fX), sorted(self.fB))


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
        add_x_part(out.fX, (p, 0, r), d_ax(f, X, B))
    for (q, r), f in sorted(t.fB.items()):
        add_cochain(out.fB, (q + 1, r), hoch_d(f, b_ops))
        add_cochain(out.fB, (q, r + 1), hoch_partial(f, b_ops))
        add_x_part(out.fX, (0, q, r), d_xb(f, A, X))
    for (p, q, r), f in sorted(t.fX.items()):
        add_x_part(out.fX, (p + 1, q, r), d_left(f))
        add_x_part(out.fX, (p, q + 1, r), d_right(f))
        add_x_part(out.fX, (p, q, r + 1), del_x(f))
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
    endomorphisms; values outside stored columns are zero.
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
            return self._fn(word)
        got = self.columns.get(word)
        if got is not None:
            return got
        return self.values.zero(self.r + self.algebra.word_degree(word))

    def derived(self, p, r, fn, label) -> "EndCochain":
        return EndCochain(self.algebra, self.X, p, r, label=label, fn=fn)


def _guarded_end_map(X: Bimodule, shift: int, col_fn, base_covered=None) -> GradedMap:
    """Columnwise End(X)-map construction that records window failures."""
    from .exact import WindowOverflow
    keys = X.space.keys if base_covered is None else base_covered
    columns = {}
    failed = False
    covered = []
    for k in keys:
        try:
            columns[k] = col_fn(k)
        except WindowOverflow:
            failed = True
            continue
        covered.append(k)
    cov = None if (not failed and base_covered is None) else covered
    out = GradedMap(X.space, X.space, shift, covered=cov)
    for k, col in columns.items():
        out.set_column(k, col, check=False)
    return out


class EndMaps:
    """End(X): the GradedMaps X -> X, with the differential [d_X, -].

    ``zero``, ``add``, ``scale`` and ``d`` of the value-module protocol of
    :func:`hochschild.hoch_d`; the two subclasses add the actions.
    """

    def __init__(self, X: Bimodule):
        self.X = X

    def zero(self, degree) -> GradedMap:
        return GradedMap.zero(self.X.space, self.X.space, degree)

    @staticmethod
    def add(phi: GradedMap, psi: GradedMap) -> GradedMap:
        return phi + psi

    @staticmethod
    def scale(phi: GradedMap, c) -> GradedMap:
        return phi.scale(c)

    def d(self, phi: GradedMap) -> GradedMap:
        X = self.X
        return _guarded_end_map(
            X, phi.shift + 1,
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
        return _guarded_end_map(
            X, phi.shift + self.A.space.degree[a_key],
            lambda k: X.lmul(a_key, phi.column(k)),
            base_covered=phi.covered)

    def rmul(self, phi: GradedMap, a_key) -> GradedMap:
        X = self.X
        return _guarded_end_map(
            X, phi.shift + self.A.space.degree[a_key],
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
        return _guarded_end_map(
            X, phi.shift + bdeg,
            lambda k: phi(X.rmul_key(k, b_key)).scale(
                sgn(bdeg * (phi.shift + X.space.degree[k]))))

    def rmul(self, phi: GradedMap, b_key) -> GradedMap:
        # (phi.b)(x) = (-1)^{|b||x|} phi(x).b
        X = self.X
        bdeg = self.B.space.degree[b_key]
        return _guarded_end_map(
            X, phi.shift + bdeg,
            lambda k: X.rmul(phi.column(k), b_key).scale(
                sgn(bdeg * X.space.degree[k])),
            base_covered=phi.covered)


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


def rho_a_star(fA: Cochain, X: Bimodule) -> EndCochain:
    """Post-compose values with the left action rho_A.

    Left multiplication grows the PBW filtration, so the value is a
    PartialMap covering the keys whose product stays in the window.
    """
    from .exact import PartialMap, WindowOverflow

    def fn(word):
        head = fA.value(word)
        wdeg = sum(fA.algebra.space.degree[k] for k in word)
        covered = []
        columns = {}
        for k in X.space.keys:
            col = GradedVector.zero(X.space)
            try:
                for ak, c in head.coeffs.items():
                    col.add_inplace(X.lmul_key(ak, k), c)
            except WindowOverflow:
                continue
            covered.append(k)
            columns[k] = col
        out = PartialMap(X.space, X.space, fA.r + wdeg, covered)
        for k, col in columns.items():
            out.set_column(k, col, check=False)
        return out

    return EndCochain(fA.algebra, X, fA.p, fA.r, label="rhoA*(%s)" % fA.label,
                      fn=fn)


def rho_b_star(fB: Cochain, X: Bimodule) -> EndCochain:
    """Post-compose values with rho_B(b)(x) = (-1)^{|x||b|} x.b."""
    def fn(word):
        head = fB.value(word)
        wdeg = sum(fB.algebra.space.degree[k] for k in word)
        out = GradedMap(X.space, X.space, fB.r + wdeg)
        for k in X.space.keys:
            col = GradedVector.zero(X.space)
            xdeg = X.space.degree[k]
            for bk, c in head.coeffs.items():
                col.add_inplace(X.rmul_key(k, bk),
                                c * sgn(xdeg * fB.algebra.space.degree[bk]))
            out.set_column(k, col, check=False)
        return out

    return EndCochain(fB.algebra, X, fB.p, fB.r, label="rhoB*(%s)" % fB.label,
                      fn=fn)
