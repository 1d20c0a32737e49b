"""Finite-dimensional Lie algebras and the graded spaces built from them.

Provides structure-constant validation, PBW-normalized enveloping algebra
windows, the odd symmetric algebra S(g[1]) and its dual with the
reversed-order monomial convention, one signed letter-removal rule behind
the pairings, both contractions and the interior product, and the
Chevalley-Eilenberg differential for the coefficient modules used
downstream (trivial, symmetric, enveloping, endomorphism) with its complex
on a window, ``CeComplex``.  S(g[1]) and S(g) are ``coalgebra.SymCoalgebra``
windows, and every monomial basis here comes from ``coalgebra.monomials``.

Degree conventions: g sits in degree 0, g[1] in degree -1, (g[1])^ in
degree +1.  Basis keys are index tuples: weakly increasing for enveloping
and symmetric monomials, strictly increasing for S(g[1]), strictly
decreasing for its dual.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations

from .coalgebra import SymCoalgebra, monomials
from .exact import (Q, ZERO, BasisSpace, GradedMap, GradedVector,
                    StructuralError, WindowOverflow, as_q, bilinear,
                    cohomology_slice, guarded_map, kernel_basis, key_memo,
                    rows_rank)
from .series import PolyTrunc
from .signs import sgn, sort_monomial


class LieAlgebra:
    """Structure constants c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k.

    Indices are 0-based internally; the JSON interchange format is 1-based.
    """

    def __init__(self, dimension: int, brackets, name: str = "g"):
        self.dimension = dimension
        self.name = name
        # canonical storage: (i, j) with i < j -> {k: coeff}
        table = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < dimension and 0 <= j < dimension):
                raise StructuralError("generator index out of range in %s" % name)
            if i == j:
                continue
            clean = {k: as_q(c) for k, c in comps.items() if as_q(c)}
            if not clean:
                continue
            if i < j:
                base = table.setdefault((i, j), {})
                for k, c in clean.items():
                    base[k] = base.get(k, ZERO) + c
            else:
                base = table.setdefault((j, i), {})
                for k, c in clean.items():
                    base[k] = base.get(k, ZERO) - c
        self.table = {ij: {k: c for k, c in comps.items() if c}
                      for ij, comps in table.items()}
        self.table = {ij: comps for ij, comps in self.table.items() if comps}

    def bracket(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a dict k -> coefficient."""
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def validate(self):
        """Check antisymmetry (structural) and the Jacobi identity exactly."""
        violations = []
        d = self.dimension
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    acc = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket(a, b)
                        for m, cm in inner.items():
                            for n, cn in self.bracket(m, c).items():
                                s = acc.get(n, ZERO) + cm * cn
                                if s:
                                    acc[n] = s
                                else:
                                    acc.pop(n, None)
                    if acc:
                        violations.append((i, j, k))
        return ValidationReport(self, tuple(violations))

    def adjoint_matrices(self):
        """``ad[i][b][a]``, the (b, a) entry of the matrix of ad_{e_i}."""
        d = self.dimension
        return [[[self.bracket(i, a).get(b, ZERO) for a in range(d)]
                 for b in range(d)] for i in range(d)]

    def is_semisimple(self) -> bool:
        """Cartan's criterion: the Killing form tr(ad x ad y) is
        non-degenerate, decided by the exact rank of its matrix."""
        d = self.dimension
        ad = self.adjoint_matrices()
        killing = [[sum(ad[i][b][a] * ad[j][a][b]
                        for a in range(d) for b in range(d))
                    for j in range(d)] for i in range(d)]
        return rows_rank(killing) == d

    # -- constructors -----------------------------------------------------

    @classmethod
    def abelian(cls, dimension: int, name=None):
        return cls(dimension, {}, name or ("abelian%d" % dimension))

    @classmethod
    def aff1(cls):
        """[e1, e2] = e2 (the nonabelian 2-dimensional algebra)."""
        return cls(2, {(0, 1): {1: 1}}, "aff1")

    @classmethod
    def heisenberg3(cls):
        """[e1, e2] = e3 central."""
        return cls(3, {(0, 1): {2: 1}}, "heisenberg3")

    @classmethod
    def sl2(cls):
        """Basis (e, f, h) with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
        return cls(3, {(2, 0): {0: 2}, (2, 1): {1: -2}, (0, 1): {2: 1}}, "sl2")

    @classmethod
    def so3(cls):
        """[e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2 (compact form of sl2;
        over Q its Casimir does not split)."""
        return cls(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}},
                   "so3")

    # -- JSON interchange --------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict):
        dim = int(data["dimension"])
        name = data.get("name", "g")
        brackets = {}
        for entry in data.get("brackets", ()):
            i = int(entry["i"]) - 1
            j = int(entry["j"]) - 1
            comps = {}
            for k, v in entry["coeffs"].items():
                c = Fraction(v)     # an integral constant stays an int
                comps[int(k) - 1] = c.numerator if c.denominator == 1 else c
            key = (i, j)
            if key in brackets:
                raise StructuralError("duplicate bracket entry for (%d,%d)" % (i + 1, j + 1))
            brackets[key] = comps
        return cls(dim, brackets, name)

    @classmethod
    def from_json_file(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        entries = []
        for (i, j), comps in sorted(self.table.items()):
            entries.append({
                "i": i + 1, "j": j + 1,
                "coeffs": {str(k + 1): str(c) for k, c in sorted(comps.items())},
            })
        return {"name": self.name, "dimension": self.dimension, "brackets": entries}

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name, self.dimension)


class ValidationReport:
    def __init__(self, algebra, jacobi_violations):
        self.algebra = algebra
        self.jacobi_violations = jacobi_violations

    @property
    def ok(self) -> bool:
        return not self.jacobi_violations

    def __repr__(self):
        if self.ok:
            return "ValidationReport(%s: ok)" % self.algebra.name
        return "ValidationReport(%s: Jacobi fails at %s)" % (
            self.algebra.name, list(self.jacobi_violations[:3]))


# ---------------------------------------------------------------------------
# enveloping algebra windows
# ---------------------------------------------------------------------------

class UgWindow:
    """PBW window of the enveloping algebra: weakly increasing words <= cap.

    Multiplication rewrites x_j x_i = x_i x_j + [x_j, x_i] for j > i and
    terminates by filtration descent; products whose normal form would exceed
    the cap raise WindowOverflow (never silently dropped).
    """

    def __init__(self, g: LieAlgebra, cap: int):
        if cap < 0:
            raise StructuralError("PBW cap must be >= 0")
        self.g = g
        self.cap = cap
        self.space = BasisSpace(
            "Ug(%s)<=%d" % (g.name, cap),
            ((k, 0) for k in monomials(dict.fromkeys(range(g.dimension), 0),
                                       cap)))
        self._normal = {}

    @property
    def unit_key(self):
        return ()

    def unit(self) -> GradedVector:
        return GradedVector.basis(self.space, ())

    def normal_order(self, word) -> GradedVector:
        """Normal form of an arbitrary generator word, as a window vector."""
        word = tuple(word)
        if len(word) > self.cap:
            raise WindowOverflow(
                "word of length %d exceeds PBW window %d of %s"
                % (len(word), self.cap, self.g.name))
        cached = self._normal.get(word)
        if cached is not None:
            return cached
        out = self._normal_order_uncached(word)
        self._normal[word] = out
        return out

    def _normal_order_uncached(self, word):
        for t in range(len(word) - 1):
            a, b = word[t], word[t + 1]
            if a > b:
                swapped = word[:t] + (b, a) + word[t + 2:]
                out = self.normal_order(swapped).copy()
                for k, c in self.g.bracket(a, b).items():
                    out.add_inplace(self.normal_order(word[:t] + (k,) + word[t + 2:]), c)
                return out
        return GradedVector.basis(self.space, word)

    def mul_keys(self, k1, k2) -> GradedVector:
        return self.normal_order(tuple(k1) + tuple(k2))

    def mul(self, v: GradedVector, w: GradedVector) -> GradedVector:
        return bilinear(self.mul_keys, self.space, v, w)

    def differential_key(self, key) -> GradedVector:
        return GradedVector.zero(self.space)


# ---------------------------------------------------------------------------
# S(g[1]) and its dual
# ---------------------------------------------------------------------------

class OddSym(SymCoalgebra):
    """The odd symmetric algebra S(g[1]): subset monomials of degree -k, the
    ``SymCoalgebra`` window on the basis of g in degree -1."""

    def __init__(self, g: LieAlgebra):
        d = g.dimension
        super().__init__(dict.fromkeys(range(d), -1), d, "S(%s[1])" % g.name)
        self.g = g
        self.top_key = tuple(range(d))
        # the bracket component q2(x, y) = -[x, y], desuspended
        self._q2 = GradedMap(self.space, self.space, 1)
        for a, b in self.space.keys_of_degree(-2):
            self._q2.set_column((a, b), GradedVector(self.space, {
                (k,): -c for k, c in g.bracket(a, b).items()}))

    @key_memo
    def coderivation_bracket_key(self, key) -> GradedVector:
        """The bracket coderivation on S(g[1]) on a basis monomial.

        Sends x_1 ... x_n to sum_{i<j} (-1)^{i+j} [x_i, x_j]-slot prepended to
        the remaining word (indices 1-based): the coderivation lifted from
        q2.  Memoized per window: the result is shared and read-only.
        """
        return self.coderivation_key(key, {2: self._q2})

    def coderivation_bracket(self) -> GradedMap:
        return self.coderivation_from({2: self._q2})

    @key_memo
    def contract_key(self, odd_key, dual_key) -> GradedVector:
        """``contract`` of one monomial by one dual monomial.  Memoized per
        window: the result is shared and read-only."""
        return contract(self, GradedVector.basis(self.space, odd_key),
                        dual_key)


class DualOdd:
    """S(g[1])^ with monomial keys stored in strictly decreasing order.

    The reversed storage matches the top form eps^d ... eps^1 and makes the
    dual monomial of e_{j_1} ... e_{j_k} pair to exactly +1 with it.
    """

    def __init__(self, g: LieAlgebra):
        self.g = g
        d = g.dimension
        self.space = BasisSpace("S(%s[1])v" % g.name, (
            (tuple(reversed(k)), len(k))
            for k in monomials(dict.fromkeys(range(d), 1), d)))
        self.top_key = tuple(reversed(range(d)))
        self._d_g = None

    def unit(self):
        return GradedVector.basis(self.space, ())

    @key_memo
    def mul_keys(self, k1, k2) -> GradedVector:
        """Product of two dual monomials; memoized per window, so the
        result is shared and read-only."""
        key, sign = sort_monomial(tuple(k1) + tuple(k2), lambda _i: 1,
                                  descending=True)
        if key is None:
            return GradedVector.zero(self.space)
        return GradedVector.basis(self.space, key, sign)

    def mul(self, v, w):
        return bilinear(self.mul_keys, self.space, v, w)

    @key_memo
    def interior_key(self, s_key, dual_key) -> GradedVector:
        """iota_x(f) = (-1)^{|x||f|} f(x . -) for the dual monomial f and
        the S(g[1]) monomial x (a letter tuple).

        Characterized by <iota_x f, y> = (-1)^{|x||f|} <f, x . y>: f loses
        the letters of x, and what remains is the dual partner of y.
        Memoized per window: the result is shared and read-only.
        """
        stripped = _strip(dual_key, s_key, 1)
        if stripped is None:
            return GradedVector.zero(self.space)
        rest, sign = stripped
        return GradedVector.basis(self.space, rest,
                                  sgn(len(s_key) * len(dual_key)) * sign)

    def dual_key_of(self, s_key):
        """Key of the dual monomial of an S(g[1]) basis monomial."""
        return tuple(reversed(tuple(s_key)))

    def differential(self, odd: OddSym) -> GradedMap:
        """Chevalley-Eilenberg differential: d(f) = -(-1)^{|f|} f o del_g."""
        if self._d_g is not None:
            return self._d_g
        m = GradedMap(self.space, self.space, 1)
        for b in self.space.keys:
            col = GradedVector.zero(self.space)
            r = len(b)
            for y in odd.space.keys:
                if len(y) != r + 1:
                    continue
                val = odd.coderivation_bracket_key(y).coeff(b[::-1])
                col.add_term(self.dual_key_of(y), -(sgn(r)) * val)
            m.set_column(b, col)
        self._d_g = m
        return m


# ---------------------------------------------------------------------------
# S(g[1]) against its dual: pairings and contractions
# ---------------------------------------------------------------------------

def _strip(key, letters, unit):
    """Remove ``letters`` from the monomial ``key`` one at a time, in order.

    A removal at 0-based slot i of an n-letter word contributes
    ``unit * (-1)^{n-1-i}``; ``unit`` is +1 for <eps^i, e_i> and -1 for
    <e_i, eps^i>.  Returns ``(rest, sign)``, or None when a letter is missing.
    """
    rest = tuple(key)
    sign = 1
    for x in letters:
        if x not in rest:
            return None
        i = rest.index(x)
        sign *= unit * sgn(len(rest) - 1 - i)
        rest = rest[:i] + rest[i + 1:]
    return rest, sign


def _pair(key, letters, unit) -> int:
    """The full pairing: every letter meets its partner exactly once."""
    if len(key) != len(letters) or len(set(key)) != len(key):
        return ZERO
    stripped = _strip(key, letters, unit)
    return ZERO if stripped is None else stripped[1]


def _strip_terms(space, v: GradedVector, letters, unit) -> GradedVector:
    """``_strip`` on every monomial of ``v``, in the key order of ``v``."""
    out = GradedVector.zero(space)
    for key, c in v.coeffs.items():
        stripped = _strip(key, letters, unit)
        if stripped is not None:
            out.add_term(stripped[0], c * stripped[1])
    return out


def pair_vec_dual(odd_key, dual_key) -> Fraction:
    """<x, xi> on S(g[1]) x S(g[1])^ monomials (vector argument first)."""
    return _pair(odd_key, dual_key, -1)                # <e_i, eps^i> = -1


def pair_dual_vec(dual_key, odd_key) -> Fraction:
    """<xi, x> on S(g[1])^ x S(g[1]) monomials (dual argument first)."""
    return _pair(odd_key, dual_key, 1)                 # <eps^i, e_i> = 1


def contract(odd: OddSym, v: GradedVector, dual_key) -> GradedVector:
    """Right action of a dual monomial on S(g[1]) by iterated contraction.

    The module axiom x |_ (xi . eta) = (x |_ xi) |_ eta is applied along the
    stored (decreasing) factor order of the dual key; each factor removes
    its letter at slot i of n with sign (-1)^{n-i} <x_i, eps^xi>.
    """
    return _strip_terms(odd.space, v, dual_key, -1)


def cocontract(dual: DualOdd, v: GradedVector, s_key) -> GradedVector:
    """Right action of an S(g[1]) monomial on the dual, factorwise."""
    return _strip_terms(dual.space, v, s_key, 1)


# ---------------------------------------------------------------------------
# symmetric algebra on g (degree 0) and the PBW map
# ---------------------------------------------------------------------------

class SymPoly(SymCoalgebra):
    """S(g) window: weakly increasing monomials of polynomial degree <= cap,
    the ``SymCoalgebra`` window on the basis of g in degree 0."""

    def __init__(self, g: LieAlgebra, cap: int):
        super().__init__(dict.fromkeys(range(g.dimension), 0), cap,
                         "S(%s)<=%d" % (g.name, cap))
        self.g = g
        self.cap = cap

    def adjoint_action(self, i: int, v: GradedVector) -> GradedVector:
        """e_i acting as the derivation extending ad_{e_i}."""
        out = GradedVector.zero(self.space)
        for key, c in v.coeffs.items():
            for t in range(len(key)):
                for k, ck in self.g.bracket(i, key[t]).items():
                    nkey = tuple(sorted(key[:t] + (k,) + key[t + 1:]))
                    out.add_term(nkey, c * ck)
        return out


def pbw_map(sym: SymPoly, ug: UgWindow, v: GradedVector) -> GradedVector:
    """Symmetrization S(g) -> Ug: monomials to averaged ordered products."""
    from math import factorial
    out = GradedVector.zero(ug.space)
    for key, c in v.coeffs.items():
        n = len(key)
        if n == 0:
            out.add_inplace(ug.unit(), c)
            continue
        scale = Q(1, factorial(n))
        for perm in permutations(range(n)):
            word = tuple(key[i] for i in perm)
            out.add_inplace(ug.normal_order(word), c * scale)
    return out


def adjoint_action_ug(ug: UgWindow, i: int, v: GradedVector) -> GradedVector:
    """e_i acting on Ug by the commutator.

    Expanded as the derivation sum over slots, so the filtration degree never
    grows and top-of-window vectors stay inside the window.
    """
    out = GradedVector.zero(ug.space)
    for key, c in v.coeffs.items():
        for t in range(len(key)):
            for k, ck in ug.g.bracket(i, key[t]).items():
                out.add_inplace(ug.normal_order(key[:t] + (k,) + key[t + 1:]),
                                c * ck)
    return out


def coadjoint_action_poly(g: LieAlgebra, i: int, p: PolyTrunc) -> PolyTrunc:
    """e_i acting on truncated polynomials S(g^) by the coadjoint derivation."""
    out = PolyTrunc.zero(p.dim, p.order)
    for key, c in p.coeffs.items():
        for t in range(len(key)):
            j = key[t]
            # ad*_{e_i}(eps^j) = -sum_k c[i][k][j] eps^k
            for k in range(g.dimension):
                coeff = g.bracket(i, k).get(j, ZERO)
                if coeff:
                    out = out + PolyTrunc(p.dim, p.order,
                                          {key[:t] + (k,) + key[t + 1:]: -c * coeff})
    return out


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg differential, parametrized by the coefficient module
# ---------------------------------------------------------------------------

class CeModule:
    """Coefficient module presentation for the Chevalley-Eilenberg complex.

    ``action(i, m)`` is the action of the generator s e_i; ``differential``
    is the internal differential (zero for all modules used here).
    """

    def __init__(self, space, action, differential=None, label="M"):
        self.space = space
        self.action = action
        self.differential = differential
        self.label = label


def ce_module_trivial(g: LieAlgebra):
    space = BasisSpace("k", ((("1",), 0),))
    return CeModule(space, lambda i, m: GradedVector.zero(space), label="k")


def ce_module_sym(sym: SymPoly):
    return CeModule(sym.space, sym.adjoint_action, label="Sg")


def ce_module_ug(ug: UgWindow):
    return CeModule(ug.space, lambda i, v: adjoint_action_ug(ug, i, v), label="Ug")


def ce_differential(odd: OddSym, module: CeModule, f: GradedMap) -> GradedMap:
    """d_CE of a cochain f: S(g[1]) -> M, with f stored columnwise.

    Implements the twisted-convolution differential: action terms with signs
    (-1)^{i+|f|}, the internal differential of M, and the bracket
    coderivation term -(-1)^{|f|} f o del_g.
    """
    if f.source is not odd.space or f.target is not module.space:
        raise StructuralError("cochain does not match the CE setup")
    r = f.shift
    out = GradedMap(odd.space, module.space, r + 1)
    for key in odd.space.keys:
        key = tuple(key)
        n = len(key)
        col = GradedVector.zero(module.space)
        for i in range(n):
            sub = key[:i] + key[i + 1:]
            val = f.columns.get(sub)
            if val:
                col.add_inplace(module.action(key[i], val), sgn((i + 1) + r))
        if module.differential is not None:
            val = f.columns.get(key)
            if val:
                col.add_inplace(module.differential(val))
        bracket_arg = odd.coderivation_bracket_key(key)
        for ykey, c in bracket_arg.items():
            val = f.columns.get(ykey)
            if val:
                col.add_inplace(val, -(sgn(r)) * c)
        out.set_column(key, col, check=False)
    return out


class CeComplex:
    """The Chevalley-Eilenberg complex Hom(S(g[1]), M) on a window.

    Keys (y, u) pair an odd monomial y with a value key u of the module
    (by default every key of its space) and sit in degree len(y), the
    arity.  ``d`` computes each column from ``ce_differential`` when it is
    first read; images that leave the window are dropped.
    """

    def __init__(self, odd: OddSym, module: CeModule, value_keys=None,
                 name=None):
        self.odd = odd
        self.module = module
        values = module.space.keys if value_keys is None else value_keys
        self.space = BasisSpace(
            name or "Hom(S(%s[1]),%s)" % (odd.g.name, module.label),
            (((y, u), len(y)) for y in odd.space.keys for u in values))
        self.d = guarded_map(self.space, self.space, 1, self._d_column)

    def _d_column(self, key) -> GradedVector:
        y, u = key
        f = GradedMap(self.odd.space, self.module.space, len(y), columns={
            y: GradedVector.basis(self.module.space, u)})
        df = ce_differential(self.odd, self.module, f).columns
        return GradedVector(self.space, {
            (y2, u2): c for y2, vec in df.items()
            for u2, c in vec.coeffs.items() if (y2, u2) in self.space})

    def cohomology(self, n: int):
        """Dimension and representatives of H^n on the window."""
        return cohomology_slice(self.d, self.d, n)

    def invariants(self, degree: int = 0):
        """Exact basis of the g-invariants of a module degree slice, as
        vectors of the module: the kernel of ``d`` on the keys ((), u) with
        u of that degree, reading only those columns of ``d``.  Refused
        when the window lacks some value key of that degree."""
        keys = self.module.space.keys_of_degree(degree)
        if any(((), u) not in self.space for u in keys):
            raise WindowOverflow("degree-%d values outside the window %s"
                                 % (degree, self.space.name))
        cocycles = GradedMap(self.module.space, self.space, 1 - degree,
                             columns={u: self.d.column(((), u))
                                      for u in keys}, check=False)
        return kernel_basis(cocycles, degree)


def invariants_basis(g: LieAlgebra, module: CeModule, degree: int = 0):
    """Exact basis of the g-invariants of a module degree slice: the
    degree-0 Chevalley-Eilenberg cocycles."""
    return CeComplex(OddSym(g), module).invariants(degree)
