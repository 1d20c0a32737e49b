"""Graded coalgebras on finite windows: symmetric and tensor flavours.

Covers the coalgebra toolbox: coproducts with Koszul-signed unshuffles,
coderivations lifted from their cogenerator components, convolution dg
algebras, twisting cochains and twisted tensor products, comodules with free
cogenerators, and the degree-shifting (decalage) identification between
multilinear maps on an algebra and on its shift.
"""

from __future__ import annotations

from .exact import (ZERO, ONE, BasisSpace, GradedMap, GradedVector,
                    StructuralError)
from .signs import sort_monomial, unshuffles, unshuffle_sign


# ---------------------------------------------------------------------------
# carriers
# ---------------------------------------------------------------------------

def tensor_square_space(space: BasisSpace) -> BasisSpace:
    items = []
    for k1 in space.keys:
        for k2 in space.keys:
            items.append(((k1, k2), space.degree[k1] + space.degree[k2]))
    return BasisSpace("(%s)ox2" % space.name, items)


def pair_space(left: BasisSpace, right: BasisSpace, name=None) -> BasisSpace:
    items = []
    for k1 in left.keys:
        for k2 in right.keys:
            items.append(((k1, k2), left.degree[k1] + right.degree[k2]))
    return BasisSpace(name or "%s(x)%s" % (left.name, right.name), items)


class SymCoalgebra:
    """S(V) on a finite window, for V with a finite homogeneous basis.

    Generators are (id, degree) pairs; monomial keys are id tuples sorted
    ascending, odd generators square to zero, and words are truncated at
    ``length_cap``.  The coproduct is the Koszul-signed unshuffle sum.
    """

    def __init__(self, generators, length_cap: int, name="SV"):
        self.generators = dict(generators)
        self.length_cap = length_cap
        self.name = name
        items = [((), 0)]
        frontier = [()]
        for _ in range(length_cap):
            new = []
            for word in frontier:
                for gid, gdeg in sorted(self.generators.items()):
                    if word and gid < word[-1]:
                        continue
                    if gdeg % 2 and gid in word:
                        continue
                    new.append(word + (gid,))
            seen = set()
            uniq = []
            for w in new:
                if w not in seen:
                    seen.add(w)
                    uniq.append(w)
            items.extend((w, sum(self.generators[g] for g in w)) for w in uniq)
            frontier = uniq
        self.space = BasisSpace(name, items)
        self.square = tensor_square_space(self.space)

    def counit_coeff(self, key):
        return ONE if len(key) == 0 else ZERO

    def mul_keys(self, k1, k2) -> GradedVector:
        word, sign = sort_monomial(tuple(k1) + tuple(k2),
                                   lambda g: self.generators[g])
        if word is None or len(word) > self.length_cap:
            return GradedVector.zero(self.space) if word is None else \
                self._overflow(word)
        return GradedVector.basis(self.space, word, sign)

    def _overflow(self, word):
        from .exact import WindowOverflow
        raise WindowOverflow("word %r exceeds coalgebra window %s" % (word, self.name))

    def coproduct_key(self, key) -> GradedVector:
        """Full unshuffle coproduct of a basis monomial."""
        key = tuple(key)
        n = len(key)
        degs = [self.generators[g] for g in key]
        out = GradedVector.zero(self.square)
        for k in range(n + 1):
            for left, right in unshuffles(n, k):
                sign = unshuffle_sign(degs, left, right)
                lk = tuple(key[i] for i in left)
                rk = tuple(key[i] for i in right)
                out.add_term((lk, rk), sign)
        return out

    def coproduct(self) -> GradedMap:
        m = GradedMap(self.space, self.square, 0)
        for key in self.space.keys:
            m.set_column(key, self.coproduct_key(key), check=False)
        return m

    def coderivation_from(self, components) -> GradedMap:
        """Coderivation lifted from generator components.

        ``components`` maps arity k to a GradedMap S^k-part -> V-part, where
        the V-part is encoded as a vector supported on length-1 words.  The
        lift sends a word to the sum over (k, n-k) unshuffles of the signed
        splice q(left) . right.
        """
        shifts = {q.shift for q in components.values()}
        if len(shifts) != 1:
            raise StructuralError("coderivation components must share a shift")
        shift = shifts.pop()
        out = GradedMap(self.space, self.space, shift)
        for key in self.space.keys:
            key = tuple(key)
            n = len(key)
            degs = [self.generators[g] for g in key]
            col = GradedVector.zero(self.space)
            for k, q in components.items():
                if k > n:
                    continue
                for left, right in unshuffles(n, k):
                    sign = unshuffle_sign(degs, left, right)
                    lk = tuple(key[i] for i in left)
                    rk = tuple(key[i] for i in right)
                    img = q.columns.get(lk)
                    if not img:
                        continue
                    for vkey, c in img.coeffs.items():
                        spliced = self.mul_keys(vkey, rk)
                        col.add_inplace(spliced, sign * c)
            out.set_column(key, col, check=False)
        return out

    def is_coassociative(self) -> bool:
        for key in self.space.keys:
            lhs = {}
            rhs = {}
            for (k1, k2), c in self.coproduct_key(key).items():
                for (a, b), c2 in self.coproduct_key(k1).items():
                    _acc(lhs, (a, b, k2), c * c2)
                for (a, b), c2 in self.coproduct_key(k2).items():
                    _acc(rhs, (k1, a, b), c * c2)
            if lhs != rhs:
                return False
        return True

    def is_cocommutative(self) -> bool:
        for key in self.space.keys:
            flipped = {}
            for (k1, k2), c in self.coproduct_key(key).items():
                d1 = self.space.degree[k1]
                d2 = self.space.degree[k2]
                sign = -1 if (d1 * d2) % 2 else 1
                _acc(flipped, (k2, k1), sign * c)
            if flipped != dict(self.coproduct_key(key).items()):
                return False
        return True

    def counit_laws_hold(self) -> bool:
        for key in self.space.keys:
            left = GradedVector.zero(self.space)
            right = GradedVector.zero(self.space)
            for (k1, k2), c in self.coproduct_key(key).items():
                left.add_term(k2, c * self.counit_coeff(k1))
                right.add_term(k1, c * self.counit_coeff(k2))
            expect = GradedVector.basis(self.space, key)
            if left != expect or right != expect:
                return False
        return True


def _acc(table, key, c):
    s = table.get(key, ZERO) + c
    if s:
        table[key] = s
    else:
        table.pop(key, None)


class TensorCoalgebra:
    """T(V) on a finite word window with the deconcatenation coproduct."""

    def __init__(self, letter_space: BasisSpace, length_cap: int, name="TV"):
        self.letters = letter_space
        self.length_cap = length_cap
        items = [((), 0)]
        words = [()]
        for _ in range(length_cap):
            words = [w + (l,) for w in words for l in letter_space.keys]
            items.extend((w, sum(letter_space.degree[l] for l in w)) for w in words)
        self.space = BasisSpace(name, items)
        self.square = tensor_square_space(self.space)

    def coproduct_key(self, key) -> GradedVector:
        key = tuple(key)
        out = GradedVector.zero(self.square)
        for i in range(len(key) + 1):
            out.add_term((key[:i], key[i:]), 1)
        return out

    def coderivation_from(self, components) -> GradedMap:
        """Coderivation sum_{i+j+k=n} id^i (x) q_k (x) id^j on each word."""
        shifts = {q.shift for q in components.values()}
        if len(shifts) != 1:
            raise StructuralError("coderivation components must share a shift")
        shift = shifts.pop()
        out = GradedMap(self.space, self.space, shift)
        for key in self.space.keys:
            key = tuple(key)
            n = len(key)
            col = GradedVector.zero(self.space)
            for k, q in components.items():
                if k > n:
                    continue
                for start in range(n - k + 1):
                    prefix = key[:start]
                    mid = key[start:start + k]
                    suffix = key[start + k:]
                    presign = sum(self.letters.degree[l] for l in prefix) * shift
                    sign = -1 if presign % 2 else 1
                    img = q.columns.get(mid)
                    if not img:
                        continue
                    for vkey, c in img.coeffs.items():
                        word = prefix + tuple(vkey) + suffix
                        if len(word) <= self.length_cap:
                            col.add_term(word, sign * c)
            out.set_column(key, col, check=False)
        return out

    def is_coassociative(self) -> bool:
        for key in self.space.keys:
            lhs = {}
            rhs = {}
            for (k1, k2), c in self.coproduct_key(key).items():
                for (a, b), c2 in self.coproduct_key(k1).items():
                    _acc(lhs, (a, b, k2), c * c2)
                for (a, b), c2 in self.coproduct_key(k2).items():
                    _acc(rhs, (k1, a, b), c * c2)
            if lhs != rhs:
                return False
        return True


# ---------------------------------------------------------------------------
# convolution dg algebra
# ---------------------------------------------------------------------------

class ConvolutionAlgebra:
    """Hom(C, A) with f*g = mu(f (x) g)Delta and the induced differential.

    ``coalgebra`` must expose ``space`` and ``coproduct_key``; ``algebra``
    must expose ``space``, ``mul_keys`` and either a ``differential_key``
    callable or ``differential`` GradedMap; ``co_differential`` is d_C.
    """

    def __init__(self, coalgebra, algebra, co_differential=None,
                 alg_differential=None):
        self.coalgebra = coalgebra
        self.algebra = algebra
        self.co_differential = co_differential
        self.alg_differential = alg_differential

    def convolve(self, f: GradedMap, g: GradedMap) -> GradedMap:
        C = self.coalgebra.space
        A = self.algebra.space
        if f.source is not C or g.source is not C or f.target is not A or g.target is not A:
            raise StructuralError("convolution arguments live on the wrong spaces")
        out = GradedMap(C, A, f.shift + g.shift)
        for key in C.keys:
            col = GradedVector.zero(A)
            for (k1, k2), c in self.coalgebra.coproduct_key(key).items():
                fv = f.columns.get(k1)
                if not fv:
                    continue
                gv = g.columns.get(k2)
                if not gv:
                    continue
                sign = -1 if (g.shift * C.degree[k1]) % 2 else 1
                for ak1, c1 in fv.coeffs.items():
                    for ak2, c2 in gv.coeffs.items():
                        col.add_inplace(self.algebra.mul_keys(ak1, ak2),
                                        sign * c * c1 * c2)
            out.set_column(key, col, check=False)
        return out

    def unit(self) -> GradedMap:
        C = self.coalgebra.space
        A = self.algebra.space
        out = GradedMap(C, A, 0)
        unit_vec = self.algebra.unit() if hasattr(self.algebra, "unit") else None
        for key in C.keys:
            eps = ONE if len(key) == 0 else ZERO
            if eps:
                out.set_column(key, unit_vec.scale(eps), check=False)
        return out

    def differential(self, f: GradedMap) -> GradedMap:
        """d(f) = d_A o f - (-1)^{|f|} f o d_C."""
        C = self.coalgebra.space
        A = self.algebra.space
        out = GradedMap(C, A, f.shift + 1)
        sign = -1 if f.shift % 2 else 1
        for key in C.keys:
            col = GradedVector.zero(A)
            fv = f.columns.get(key)
            if fv and self.alg_differential is not None:
                for ak, c in fv.coeffs.items():
                    col.add_inplace(self.alg_differential(ak), c)
            if self.co_differential is not None:
                dkey = self.co_differential(key)
                for ckey, c in dkey.items():
                    got = f.columns.get(ckey)
                    if got:
                        col.add_inplace(got, -sign * c)
            out.set_column(key, col, check=False)
        return out

    def mc_defect(self, tau: GradedMap) -> GradedMap:
        """d(tau) + tau * tau; zero exactly for twisting cochains."""
        if tau.shift != 1:
            raise StructuralError("twisting cochain candidates have shift +1")
        return self.differential(tau) + self.convolve(tau, tau)


def twisted_tensor_differential(conv: ConvolutionAlgebra, tau: GradedMap,
                                carrier: BasisSpace) -> GradedMap:
    """d_tau on A (x) C: d_A(x)id + id(x)d_C - (mu(x)id)(id(x)tau(x)id)(id(x)Delta).

    ``carrier`` must be the pair space of the algebra and coalgebra windows.
    """
    defect = conv.mc_defect(tau)
    if not defect.is_zero():
        raise StructuralError("tau is not a twisting cochain; MC defect is nonzero")
    A = conv.algebra.space
    C = conv.coalgebra.space
    out = GradedMap(carrier, carrier, 1)
    for (akey, ckey) in carrier.keys:
        col = GradedVector.zero(carrier)
        if conv.alg_differential is not None:
            for ak, c in conv.alg_differential(akey).items():
                col.add_term((ak, ckey), c)
        if conv.co_differential is not None:
            asign = -1 if A.degree[akey] % 2 else 1
            for ck, c in conv.co_differential(ckey).items():
                col.add_term((akey, ck), asign * c)
        asign = -1 if A.degree[akey] % 2 else 1
        for (c1, c2), c in conv.coalgebra.coproduct_key(ckey).items():
            tv = tau.columns.get(c1)
            if not tv:
                continue
            for tk, tc in tv.coeffs.items():
                for pk, pc in conv.algebra.mul_keys(akey, tk).items():
                    col.add_term((pk, c2), -asign * c * tc * pc)
        out.set_column((akey, ckey), col, check=False)
    return out


# ---------------------------------------------------------------------------
# comodules and cogenerators
# ---------------------------------------------------------------------------


def cogenerator_lift(carrier: BasisSpace, coalgebra, f: GradedMap) -> GradedMap:
    """Psi_f = (f (x) id) o (id (x) Delta) on V (x) SW.

    ``f`` maps the pair carrier to the V-part, encoded on pair keys with the
    coalgebra part trivial: f-columns live on the carrier, values on keys
    (vkey, ()).  ``pr o Psi_f = f`` and Psi_f is a comodule morphism.
    """
    out = GradedMap(carrier, carrier, f.shift)
    for (vkey, wkey) in carrier.keys:
        col = GradedVector.zero(carrier)
        for (w1, w2), c in coalgebra.coproduct_key(wkey).items():
            img = f.columns.get((vkey, w1))
            if not img:
                continue
            for (ikey, unit), ci in img.coeffs.items():
                if unit != ():
                    raise StructuralError("cogenerator values must land in V")
                col.add_term((ikey, w2), c * ci)
        out.set_column((vkey, wkey), col, check=False)
    return out


def comodule_morphism_defect(carrier: BasisSpace, coalgebra, psi: GradedMap):
    """(Psi (x) id) o phi - phi o Psi on every basis key; empty iff morphism."""
    bad = []
    for (vkey, wkey) in carrier.keys:
        lhs = {}
        for (w1, w2), c in coalgebra.coproduct_key(wkey).items():
            img = psi.columns.get((vkey, w1))
            if not img:
                continue
            for pkey, ci in img.coeffs.items():
                _acc(lhs, (pkey, w2), c * ci)
        rhs = {}
        img = psi.columns.get((vkey, wkey))
        if img:
            for (pv, pw), ci in img.coeffs.items():
                for (w1, w2), c in coalgebra.coproduct_key(pw).items():
                    _acc(rhs, ((pv, w1), w2), c * ci)
        if lhs != rhs:
            bad.append((vkey, wkey))
    return bad


# ---------------------------------------------------------------------------
# decalage
# ---------------------------------------------------------------------------

def decalage_sign(degrees) -> int:
    """(-1)^{sum_i (p-i)|a_i|} for a length-p word (1-based i)."""
    p = len(degrees)
    exponent = sum((p - i) * degrees[i - 1] for i in range(1, p + 1))
    return -1 if exponent % 2 else 1


def shifted_letter_space(space: BasisSpace, name=None) -> BasisSpace:
    """A[1]: same keys, degrees shifted down by one."""
    return BasisSpace(name or (space.name + "[1]"),
                      ((k, space.degree[k] - 1) for k in space.keys))
