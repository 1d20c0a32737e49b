"""Sum-total Hochschild complexes of dg algebras on truncation windows.

A cochain of bidegree (p, r) is a degree-r map A^{(x)p} -> M, stored
columnwise over basis words; an absent column is zero, so sparsely supported
random cochains are honest cochains on the whole window.  The module provides
the Hochschild differential, the differential induced by the dg structures,
the cup product, the insertion compositions and the Gerstenhaber bracket as
exact evaluators, plus matrix-level interior-window cohomology and the class
test on one total-degree slice (``TotalSlice``) for finite algebras.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .signs import sgn
from .exact import (BasisSpace, GradedMap, GradedVector, StructuralError,
                    bilinear, cohomology_slice, derive_seed, key_memo,
                    random_coefficients, solve)


class TruncationWindow:
    """The bounds defining a finite Hochschild computation.

    ``max_arity`` bounds the word length, ``degree_range`` the cochain
    degrees, and ``pbw`` the enveloping filtration when one is involved.
    Components produced at the arity boundary are computed into it and
    flagged by the interior-reporting convention, never silently dropped.
    """

    def __init__(self, max_arity: int, degree_range=(-6, 6), pbw: int = 3):
        if max_arity < 1:
            raise StructuralError("the arity window must be at least one")
        self.max_arity = max_arity
        self.degree_range = tuple(degree_range)
        self.pbw = pbw

    def to_dict(self):
        return {"max_arity": self.max_arity,
                "degree_range": list(self.degree_range), "pbw": self.pbw}

    def __repr__(self):
        return "TruncationWindow(P=%d, r=%s, N=%d)" % (
            self.max_arity, self.degree_range, self.pbw)


class DgAlgebra:
    """Finite-window dg algebra presentation.

    ``mul_keys(k1, k2)`` returns the product of basis monomials as a vector;
    ``differential_key`` is d_A on basis keys (may be None for d = 0).
    """

    def __init__(self, space: BasisSpace, unit_key, mul_keys,
                 differential_key=None, name=None):
        self.space = space
        self.unit_key = unit_key
        self.mul_keys = mul_keys
        self.differential_key = differential_key
        self.name = name or space.name

    def unit(self) -> GradedVector:
        return GradedVector.basis(self.space, self.unit_key)

    def mul(self, v: GradedVector, w: GradedVector) -> GradedVector:
        return bilinear(self.mul_keys, self.space, v, w)

    def d_key(self, key) -> GradedVector:
        if self.differential_key is None:
            return GradedVector.zero(self.space)
        return self.differential_key(key)

    def d_vec(self, v: GradedVector) -> GradedVector:
        out = GradedVector.zero(self.space)
        for k, c in v.coeffs.items():
            out.add_inplace(self.d_key(k), c)
        return out

    def word_degree(self, word) -> int:
        return sum(self.space.degree[k] for k in word)


def ground_field() -> DgAlgebra:
    space = BasisSpace("k", ((("1",), 0),))
    one = ("1",)
    return DgAlgebra(space, one, lambda a, b: GradedVector.basis(space, one),
                     name="k")


def dual_odd_algebra(dual, odd) -> DgAlgebra:
    """S(g[1])^ with the Chevalley-Eilenberg differential."""
    d_g = dual.differential(odd)
    return DgAlgebra(dual.space, (), dual.mul_keys,
                     lambda k: d_g.column(k), name=dual.space.name)


def ug_algebra(ug) -> DgAlgebra:
    return DgAlgebra(ug.space, (), ug.mul_keys, None, name=ug.space.name)


class VectorValues:
    """GradedVector values in ``space``.

    ``zero``, ``add`` and ``scale`` are the value arithmetic of the
    value-module protocol that :func:`hoch_d` is written against; a vector
    carries no degree, so ``zero`` ignores it.  ``scale`` returns c v as a
    vector of ``space`` even when v was built in an equal copy of it (the
    polyvector cochains of duflo.hkr build theirs in their own dual odd
    algebra), so every value of a differential lives in its own module.
    """

    def __init__(self, space: BasisSpace):
        self.space = space

    def zero(self, degree) -> GradedVector:
        return GradedVector.zero(self.space)

    @staticmethod
    def add(v: GradedVector, w: GradedVector) -> GradedVector:
        return v + w

    def scale(self, v: GradedVector, c) -> GradedVector:
        return GradedVector.zero(self.space).add_inplace(v, c)


def value_sum(values, terms, degree):
    """The sum of a list of values; the zero of ``degree`` when it is empty."""
    if not terms:
        return values.zero(degree)
    out = terms[0]
    for term in terms[1:]:
        out = values.add(out, term)
    return out


class WordCochain:
    """What every cochain on words of basis letters of ``algebra`` shares.

    A subclass carries the arity ``p``, the degree ``r``, a ``label`` and
    ``values``, the arithmetic of its values (``zero(degree)``, ``add``,
    ``scale``).  It defines ``value(word)`` and ``derived(p, r, fn,
    label)``, the cochain of the same kind whose values are ``fn(word)``.
    """

    def value_with_slot(self, before, vec: GradedVector, after):
        """Multilinear evaluation with one vector-valued slot."""
        V = self.values
        before, after = tuple(before), tuple(after)
        terms = [V.scale(self.value(before + (key,) + after), c)
                 for key, c in vec.coeffs.items()]
        return value_sum(V, terms, self.r + self.algebra.word_degree(before)
                         + self.algebra.word_degree(after))


def seeded_value(space, r, kept, pieces, seed_parts) -> GradedVector:
    """The value of a seeded cochain on one word: a deterministic slice.

    ``pieces`` holds (letter window or None, letter space, letters) for each
    piece of the word; a letter outside its window gives zero.  Otherwise
    the value is the random vector of degree d = r + (word degree) seeded by
    ``derive_seed(*seed_parts)``, on the keys of ``kept(d)`` only: the
    (position, key) pairs of :func:`kept_keys`.  Coefficients are drawn up
    to the last kept position, so each kept key gets the coefficient the
    whole slice would give it.  ``Cochain`` and ``trio.XCochain`` memoize
    ``kept`` and the value per instance, so each slice is drawn once and
    then handed out shared and read-only.
    """
    for letters, _, word in pieces:
        if letters is not None and any(k not in letters for k in word):
            return GradedVector.zero(space)
    deg = r + sum(sp.degree[k] for _, sp, word in pieces for k in word)
    vec = GradedVector.zero(space)
    keys = kept(deg)
    if keys:
        coeffs = random_coefficients(space, deg, derive_seed(*seed_parts),
                                     keys[-1][0] + 1)
        vec.coeffs = {key: coeffs[i] for i, key in keys if coeffs[i]}
    return vec


def kept_keys(space, deg, value_keys):
    """The (position, key) pairs of the keys of the degree-``deg`` slice of
    ``space`` that lie in ``value_keys`` (all of them when it is None)."""
    return tuple((i, key) for i, key in enumerate(space.keys_of_degree(deg))
                 if value_keys is None or key in value_keys)


class Cochain(WordCochain):
    """Hochschild cochain of bidegree (p, r) over A with values in ``module``.

    ``module`` only needs a ``space`` attribute here; bimodule actions enter
    through the operator evaluators.  Values outside the stored columns are
    zero unless the cochain carries a seed, in which case they are
    deterministic seeded slices (used by the property harness), drawn once
    per word and memoized on the instance: like the stored columns, they
    are handed out shared and read-only.
    """

    def __init__(self, algebra: DgAlgebra, module, p: int, r: int,
                 columns=None, seed=None, letters=None, value_keys=None,
                 label=""):
        self.algebra = algebra
        self.module = module
        self.values = VectorValues(module.space)
        self.p = p
        self.r = r
        self.columns = dict(columns or {})
        self.seed = seed
        self.letters = frozenset(letters) if letters is not None else None
        self.value_keys = frozenset(value_keys) if value_keys is not None else None
        self.label = label

    def value(self, word) -> GradedVector:
        word = tuple(word)
        if len(word) != self.p:
            raise StructuralError("arity mismatch: %d letters for a %d-cochain"
                                  % (len(word), self.p))
        got = self.columns.get(word)
        if got is not None:
            return got
        if self.seed is None:
            return GradedVector.zero(self.module.space)
        return self._seeded(word)

    @key_memo
    def _seeded(self, word) -> GradedVector:
        """The seeded value on ``word``, drawn once per cochain."""
        return seeded_value(self.module.space, self.r, self._kept,
                            ((self.letters, self.algebra.space, word),),
                            (self.label, self.seed, word))

    @key_memo
    def _kept(self, deg):
        return kept_keys(self.module.space, deg, self.value_keys)

    def derived(self, p, r, fn, label) -> "Derived":
        return Derived(self.algebra, self.module, p, r, fn, label=label)


class Derived(Cochain):
    """Operator-image cochain evaluated on demand from the formula.

    The formula runs once per word: ``_value`` memoizes it per instance, so
    a repeated read is a lookup and every reader shares one read-only
    vector, as with seeded values.  A refusal (``WindowOverflow``) is raised
    again, never stored.
    """

    def __init__(self, algebra, module, p, r, fn, label=""):
        super().__init__(algebra, module, p, r, label=label)
        self._fn = fn

    def value(self, word):
        word = tuple(word)
        if len(word) != self.p:
            raise StructuralError("arity mismatch in %s" % (self.label or "derived"))
        return self._value(word)

    @key_memo
    def _value(self, word):
        """The value on ``word``, computed once per cochain."""
        return self._fn(word)


class ZeroCochain(Cochain):
    """Formally zero cochain; tolerates any arity (used for empty bidegrees)."""

    def __init__(self, algebra, module, p, r):
        super().__init__(algebra, module, p, r, label="0")

    def value(self, word):
        return GradedVector.zero(self.module.space)


def add_cochain(table, key, part):
    """``table[key] += part`` for vector-valued cochains keyed by their
    degrees: (p, r) for word cochains, (p, q, r) for X-part cochains."""
    prev = table.get(key)
    if prev is None:
        table[key] = part
        return
    table[key] = prev.derived(
        *key, lambda *w: prev.value(*w) + part.value(*w), label="sum")


def unit_cochain(algebra: DgAlgebra) -> Cochain:
    return Cochain(algebra, algebra, 0, 0, columns={(): algebra.unit()},
                   label="1")


def identity_cochain(algebra: DgAlgebra) -> Cochain:
    cols = {(k,): GradedVector.basis(algebra.space, k) for k in algebra.space.keys}
    return Cochain(algebra, algebra, 1, 0, columns=cols, label="id")


def multiplication_cochain(algebra: DgAlgebra) -> Cochain:
    return Derived(algebra, algebra, 2, 0,
                   lambda w: algebra.mul_keys(w[0], w[1]), label="mu")


def differential_cochain(algebra: DgAlgebra) -> Cochain:
    return Derived(algebra, algebra, 1, 1, lambda w: algebra.d_key(w[0]),
                   label="dA")


# ---------------------------------------------------------------------------
# the Hochschild differential, for every kind of value
# ---------------------------------------------------------------------------

class BimoduleOps(VectorValues):
    """Left/right actions and differential of an A-A-bimodule presentation."""

    def __init__(self, space, lmul, rmul, d):
        super().__init__(space)
        self.lmul = lmul          # (a_key, m_vec) -> m_vec
        self.rmul = rmul          # (m_vec, a_key) -> m_vec
        self.d = d                # m_vec -> m_vec

    @classmethod
    def of_algebra(cls, algebra: DgAlgebra):
        def lmul(a_key, m_vec):
            return algebra.mul(GradedVector.basis(algebra.space, a_key), m_vec)

        def rmul(m_vec, a_key):
            return algebra.mul(m_vec, GradedVector.basis(algebra.space, a_key))

        return cls(algebra.space, lmul, rmul, algebra.d_vec)


# The value-module protocol: ``ops`` holds the values of a cochain f, with
# ``zero(degree)``, ``add(m1, m2)`` and ``scale(m, c)`` for their arithmetic,
# ``lmul(a_key, m)`` and ``rmul(m, a_key)`` for the actions of a basis letter
# and ``d(m)`` for the differential.  It is met by BimoduleOps (vector
# values), trio.BLinearEnds and trio.ALinearEnds (End(X) values) and
# keller.AbelianActionCone (the acyclic module of the tail bound).  A
# zero vector is falsy and contributes nothing, so it is skipped; End(X)
# maps and module elements are always truthy, so their actions always run
# and the window refusals recorded in a map's coverage propagate.  The
# X-part cochains of the trio complex are the same formulas on the flat
# words a_1..a_p x b_1..b_q of the semidirect algebra, whose letters act
# through the bimodule's own keyed products; trio.d_left, trio.d_right and
# trio.del_x write them against trio.XCochain.value_with_slot.

def hoch_d(f: WordCochain, ops) -> WordCochain:
    """The Hochschild differential d_H(f), arity p+1, same r."""
    A = f.algebra
    p, r = f.p, f.r

    def fn(word):
        terms = []
        a0 = word[0]
        head = f.value(word[1:])
        if head:
            sign = sgn((p + r - 1) + r * A.space.degree[a0])
            terms.append(ops.scale(ops.lmul(a0, head), sign))
        for i in range(p):
            prod = A.mul_keys(word[i], word[i + 1])
            if prod:
                terms.append(ops.scale(
                    f.value_with_slot(word[:i], prod, word[i + 2:]),
                    sgn(p + r + i)))
        tail = f.value(word[:-1])
        if tail:
            terms.append(ops.scale(ops.rmul(tail, word[-1]), sgn(r)))
        return value_sum(ops, terms, r + A.word_degree(word))

    return f.derived(p + 1, r, fn, "dH(%s)" % f.label)


def hoch_partial(f: WordCochain, ops) -> WordCochain:
    """The differential induced by d_A and d_M, same arity, r+1."""
    A = f.algebra
    p, r = f.p, f.r

    def fn(word):
        terms = []
        head = f.value(word)
        if head:
            terms.append(ops.d(head))
        if A.differential_key is not None:
            acc = 0
            for i in range(p):
                da = A.d_key(word[i])
                if da:
                    terms.append(ops.scale(
                        f.value_with_slot(word[:i], da, word[i + 1:]),
                        -sgn(r + acc)))
                acc += A.space.degree[word[i]]
        return value_sum(ops, terms, r + 1 + A.word_degree(word))

    return f.derived(p, r + 1, fn, "del(%s)" % f.label)


def cup(f: Cochain, g: Cochain) -> Cochain:
    """Cup product for algebra-valued cochains."""
    A = f.algebra
    p1, r1, p2, r2 = f.p, f.r, g.p, g.r
    if p1 < 0 or p2 < 0:
        return ZeroCochain(A, f.module, p1 + p2, r1 + r2)

    def fn(word):
        first, second = word[:p1], word[p1:]
        fv = f.value(first)
        if not fv:
            return GradedVector.zero(A.space)
        gv = g.value(second)
        if not gv:
            return GradedVector.zero(A.space)
        exponent = p1 * p2 + r2 * (A.word_degree(first) + p1)
        out = A.mul(fv, gv)
        return out if exponent % 2 == 0 else -out

    return Derived(A, f.module, p1 + p2, r1 + r2, fn,
                   label="(%s)u(%s)" % (f.label, g.label))


def circ(f: Cochain, g: Cochain, i: int) -> Cochain:
    """Insertion composition f o_i g, 1 <= i <= p1."""
    A = f.algebra
    p1, r1, p2, r2 = f.p, f.r, g.p, g.r
    if p1 < 0 or p2 < 0:
        return ZeroCochain(A, f.module, p1 + p2 - 1, r1 + r2)
    if not 1 <= i <= p1:
        raise StructuralError("insertion slot %d out of range 1..%d" % (i, p1))

    def fn(word):
        before = word[:i - 1]
        mid = word[i - 1:i - 1 + p2]
        after = word[i - 1 + p2:]
        gv = g.value(mid)
        if not gv:
            return GradedVector.zero(f.module.space)
        sign = sgn(r2 * A.word_degree(before))
        out = f.value_with_slot(before, gv, after)
        return out if sign == 1 else -out

    return Derived(A, f.module, p1 + p2 - 1, r1 + r2, fn,
                   label="(%s)o%d(%s)" % (f.label, i, g.label))


def gerstenhaber(f: Cochain, g: Cochain) -> Cochain:
    """The Gerstenhaber bracket [f, g]."""
    A = f.algebra
    p1, r1, p2, r2 = f.p, f.r, g.p, g.r
    if p1 + p2 - 1 < 0 or p1 < 0 or p2 < 0:
        return ZeroCochain(A, f.module, p1 + p2 - 1, r1 + r2)
    flip = sgn((p1 + r1 - 1) * (p2 + r2 - 1))
    # the insertions, each built once per bracket with its sign
    terms = ([(circ(f, g, i), sgn((p1 - 1) * r2 + (i - 1) * (p2 - 1)))
              for i in range(1, p1 + 1)]
             + [(circ(g, f, j),
                 -flip * sgn((p2 - 1) * r1 + (j - 1) * (p1 - 1)))
                for j in range(1, p2 + 1)])

    def fn(word):
        out = GradedVector.zero(f.module.space)
        for h, sign in terms:
            out.add_inplace(h.value(word), sign)
        return out

    return Derived(A, f.module, p1 + p2 - 1, r1 + r2, fn,
                   label="[%s,%s]" % (f.label, g.label))


def random_cochain(algebra: DgAlgebra, module, p, r, seed, letters=None,
                   value_keys=None, label="f") -> Cochain:
    return Cochain(algebra, module, p, r, seed=seed, letters=letters,
                   value_keys=value_keys, label="%s%d" % (label, seed))


# ---------------------------------------------------------------------------
# matrix-level interior cohomology for finite algebras
# ---------------------------------------------------------------------------

def words_of(letters, arity: int):
    """All words of length ``arity`` over ``letters``, the last letter
    varying fastest; a negative arity has none."""
    return list(product(letters, repeat=arity)) if arity >= 0 else []


def total_cochain_space(algebra: DgAlgebra, module_space: BasisSpace,
                        total_degree: int, arity_cap: int) -> BasisSpace:
    """Total-degree slice of the sum-total complex up to an arity cap.

    Keys are (p, word, value_key); every key is assigned degree
    ``total_degree`` so the total differential is a shift-1 graded map.
    """
    items = []
    for p in range(arity_cap + 1):
        for word in words_of(algebra.space.keys, p):
            wdeg = algebra.word_degree(word)
            for vkey in module_space.keys:
                if p + module_space.degree[vkey] - wdeg == total_degree:
                    items.append(((p, word, vkey), total_degree))
    return BasisSpace("Hoch(%s)^%d<=%d" % (algebra.name, total_degree,
                                           arity_cap), items)


def _mul_preimage_table(algebra: DgAlgebra):
    """key -> list of (a, b, coeff) with coeff the key-component of a.b."""
    table = {}
    for a in algebra.space.keys:
        for b in algebra.space.keys:
            for key, c in algebra.mul_keys(a, b).items():
                table.setdefault(key, []).append((a, b, c))
    return table


def _d_preimage_table(algebra: DgAlgebra):
    table = {}
    if algebra.differential_key is None:
        return table
    for a in algebra.space.keys:
        for key, c in algebra.d_key(a).items():
            table.setdefault(key, []).append((a, c))
    return table


def total_differential(algebra: DgAlgebra, bimod: BimoduleOps,
                       source: BasisSpace, target: BasisSpace) -> GradedMap:
    """(d_H + partial) between total-degree slices, columnwise.

    Built through multiplication/differential preimage tables so the cost is
    proportional to the actual fan-out, not to the full word count.
    """
    mul_pre = _mul_preimage_table(algebra)
    d_pre = _d_preimage_table(algebra)
    out = GradedMap(source, target, 1)
    for (p, word, vkey) in source.keys:
        r = bimod.space.degree[vkey] - algebra.word_degree(word)
        col = GradedVector.zero(target)
        vvec = GradedVector.basis(bimod.space, vkey)

        def add(key, vec, sign):
            for mk, c in vec.coeffs.items():
                full = (key[0], key[1], mk)
                if full in target.degree:
                    col.add_term(full, sign * c)

        # d_H term 1: prepend any letter a0
        for a0 in algebra.space.keys:
            sign = sgn((p + r - 1) + r * algebra.space.degree[a0])
            add((p + 1, (a0,) + word), bimod.lmul(a0, vvec), sign)
        # d_H term 2: split one slot through a multiplication preimage
        for i in range(p):
            for (a, b, c) in mul_pre.get(word[i], ()):
                w1 = word[:i] + (a, b) + word[i + 1:]
                add((p + 1, w1), vvec.scale(c), sgn(p + r + i))
        # d_H term 3: append any letter
        for ap in algebra.space.keys:
            add((p + 1, word + (ap,)), bimod.rmul(vvec, ap), sgn(r))
        # partial: value differential
        add((p, word), bimod.d(vvec), 1)
        # partial: letter differentials through the preimage table
        for i in range(p):
            for (a, c) in d_pre.get(word[i], ()):
                w1 = word[:i] + (a,) + word[i + 1:]
                acc = sum(algebra.space.degree[k] for k in w1[:i])
                add((p, w1), vvec.scale(-sgn(r + acc) * c), 1)
        out.set_column((p, word, vkey), col, check=False)
    return out


class TotalSlice:
    """Hochschild classes on one total-degree slice up to an arity cap.

    ``space`` is the slice; ``d_in`` comes from the slice of degree - 1 at
    the same cap and ``d_out`` goes to the slice of degree + 1 at cap + 1.
    Each is built on first use and only once.
    """

    def __init__(self, algebra: DgAlgebra, bimod: BimoduleOps,
                 total_degree: int, arity_cap: int):
        self.algebra, self.bimod = algebra, bimod
        self.degree, self.cap = total_degree, arity_cap

    def _slice(self, shift, cap) -> BasisSpace:
        return total_cochain_space(self.algebra, self.bimod.space,
                                   self.degree + shift, cap)

    @cached_property
    def space(self) -> BasisSpace:
        return self._slice(0, self.cap)

    @cached_property
    def d_in(self) -> GradedMap:
        return total_differential(self.algebra, self.bimod,
                                  self._slice(-1, self.cap), self.space)

    @cached_property
    def d_out(self) -> GradedMap:
        return total_differential(self.algebra, self.bimod, self.space,
                                  self._slice(1, self.cap + 1))

    def vector(self, parts) -> GradedVector:
        """The slice vector of cochains keyed by bidegree (p, r)."""
        out = GradedVector.zero(self.space)
        for (p, word, vkey) in self.space.keys:
            r = self.bimod.space.degree[vkey] - self.algebra.word_degree(word)
            f = parts.get((p, r))
            if f is None or f.p != p:
                continue
            c = f.value(word).coeff(vkey)
            if c:
                out.add_term((p, word, vkey), c)
        return out

    def is_boundary(self, v: GradedVector) -> bool:
        return solve([self.d_in.column(k) for k in self.d_in.source.keys],
                     v) is not None

    def same_class(self, parts1, parts2):
        """Whether two cochain families have one class on the slice; None
        when either is not a cocycle there."""
        v1, v2 = self.vector(parts1), self.vector(parts2)
        if self.d_out(v1) or self.d_out(v2):
            return None
        return self.is_boundary(v1 - v2)


def interior_hh(algebra: DgAlgebra, total_degree: int, arity_window: int,
                bimod: BimoduleOps = None):
    """Interior-window Hochschild cohomology dimension and representatives.

    Classes are reported at arities <= P-1 so the cocycle condition is fully
    checked into arity P; coboundaries are taken from arities <= P-2.
    """
    bimod = bimod or BimoduleOps.of_algebra(algebra)
    P = arity_window
    below = total_cochain_space(algebra, bimod.space, total_degree - 1,
                                max(P - 2, -1) if P >= 2 else -1)
    here = total_cochain_space(algebra, bimod.space, total_degree, P - 1)
    above = total_cochain_space(algebra, bimod.space, total_degree + 1, P)

    d_out = total_differential(algebra, bimod, here, above)
    if below.dim:
        d_in_raw = total_differential(algebra, bimod, below, here)
    else:
        d_in_raw = GradedMap.zero(below, here, 1)
    dim, reps = cohomology_slice(d_in_raw, d_out, total_degree)
    return dim, reps
