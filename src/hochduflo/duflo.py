"""Polyvector fields and polydifferential operators on the odd shift of g.

Implements the two legs of the Duflo correspondence at truncation windows:
the invariant Duflo series and its square root acting on symmetric
invariants by contraction, the Atiyah/Todd determinant consistency check,
the antisymmetrized embedding of polyvectors into Hochschild cochains of the
dual odd algebra, the two comparison quasi-isomorphisms into
Chevalley-Eilenberg complexes, the pullback complex tying them together, and
the explicit homotopy operator certifying that the enveloping-algebra route
and the symmetric route agree.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial

from .signs import sgn, perm_parity
from .exact import (Q, ZERO, ONE, BasisSpace, GradedMap, GradedVector,
                    StructuralError, WindowOverflow, bilinear, derive_seed,
                    random_vector)
from .series import PolyTrunc, duflo_log_coefficients, matrix_series_det
from .liealg import (LieAlgebra, UgWindow, OddSym, DualOdd, SymPoly,
                     interior_product, pair_dual_vec, pbw_map, ce_differential,
                     ce_module_sym, ce_module_ug, coadjoint_action_poly)
from .hochschild import (Cochain, Derived, DgAlgebra, BimoduleOps, add_cochain,
                         hoch_d, hoch_partial)
from .keller import LieTriple
from .trio import (XCochain, add_x_part, d_ax, d_xb, d_left, d_right, del_x)


# ---------------------------------------------------------------------------
# the Duflo series and its contraction action
# ---------------------------------------------------------------------------

def trace_ad_powers(g: LieAlgebra, order: int):
    """tr(ad_x^k) as truncated polynomials on g, for k = 1..order."""
    d = g.dimension
    ad = [[[g.bracket(i, a).get(b, ZERO) for a in range(d)] for b in range(d)]
          for i in range(d)]
    # ad[i][b][a] is the (b,a) entry of ad_{e_i}
    out = {}
    for k in range(1, order + 1):
        poly = PolyTrunc.zero(d, order)
        for word in product(range(d), repeat=k):
            # trace of ad_{e_{w_1}} ... ad_{e_{w_k}}
            tr = ZERO
            for start in range(d):
                # follow the matrix product along basis index chains
                vec = {start: ONE}
                for i in word[::-1]:
                    nxt = {}
                    for a, c in vec.items():
                        for b in range(d):
                            val = ad[i][b][a]
                            if val:
                                nxt[b] = nxt.get(b, ZERO) + c * val
                    vec = nxt
                tr += vec.get(start, ZERO)
            if tr:
                poly = poly + PolyTrunc(d, order, {tuple(sorted(word)): tr})
        out[k] = poly
    return out


def duflo_series(g: LieAlgebra, order: int):
    """The Duflo element J and its square root, to the given order.

    log J(x) = sum_k c_k tr(ad_x^k) with c_k the coefficients of
    log((1 - e^{-t})/t); the square root is exp of half the logarithm.
    """
    coeffs = duflo_log_coefficients(order)
    traces = trace_ad_powers(g, order)
    logj = PolyTrunc.zero(g.dimension, order)
    for k in range(1, order + 1):
        if coeffs[k]:
            logj = logj + traces[k].scale(coeffs[k])
    J = logj.exp()
    J_sqrt = logj.scale(Q(1, 2)).exp()
    return J, J_sqrt


def invariance_defects(g: LieAlgebra, series: PolyTrunc):
    """Coadjoint-action images of the series; empty iff g-invariant."""
    bad = []
    for i in range(g.dimension):
        img = coadjoint_action_poly(g, i, series)
        if not img.is_zero():
            bad.append((i, img))
    return bad


def series_contraction(sym: SymPoly, series: PolyTrunc,
                       v: GradedVector) -> GradedVector:
    """Action of an invariant series on S(g) as a formal differential operator.

    The order-k component acts as the k-fold directional derivative paired
    through the basis; order-k components annihilate polynomials of degree
    below k, so the truncated sum is exact on each degree.
    """
    out = GradedVector.zero(sym.space)
    for key, c in series.coeffs.items():
        for skey, cv in v.coeffs.items():
            term = _iterated_derivative(sym, key, skey)
            if term:
                out.add_inplace(term, c * cv)
    return out


def _iterated_derivative(sym: SymPoly, dual_word, skey) -> GradedVector:
    current = {tuple(skey): ONE}
    for xi in dual_word:
        nxt = {}
        for key, c in current.items():
            for t in range(len(key)):
                if key[t] == xi:
                    nkey = key[:t] + key[t + 1:]
                    nxt[nkey] = nxt.get(nkey, ZERO) + c
        current = nxt
        if not current:
            break
    out = GradedVector.zero(sym.space)
    for key, c in current.items():
        out.add_term(key, c)
    return out


def atiyah_cocycle(g: LieAlgebra, odd: OddSym) -> GradedMap:
    """The bracket-valued cocycle of the trivial connection on g[1].

    Stored as a map on the tensor square of g[1] with values in g[1],
    characterized on generators by the shifted bracket.
    """
    sq_items = []
    for i in range(g.dimension):
        for j in range(g.dimension):
            sq_items.append(((i, j), -2))
    sq = BasisSpace("(%s[1])ox2" % g.name, sq_items)
    letters = BasisSpace("%s[1]" % g.name,
                         ((i, -1) for i in range(g.dimension)))
    out = GradedMap(sq, letters, 1)
    for (i, j) in sq.keys:
        col = GradedVector.zero(letters)
        for k, c in g.bracket(i, j).items():
            col.add_term(k, c)
        out.set_column((i, j), col, check=False)
    return out


def todd_determinant(g: LieAlgebra, order: int) -> PolyTrunc:
    """det((1 - e^{-ad})/ad) expanded entrywise as a truncated polynomial.

    Independent of the exp-trace-log route; used as the consistency check of
    the determinant identity for the Todd series.
    """
    d = g.dimension
    entries = [[PolyTrunc.zero(d, order) for _ in range(d)] for _ in range(d)]
    for b in range(d):
        entries[b][b] = PolyTrunc.constant(d, order)
    # powers of the linear-form-valued matrix N = ad_x
    power = None
    for n in range(1, order + 1):
        if power is None:
            power = [[PolyTrunc.zero(d, order) for _ in range(d)]
                     for _ in range(d)]
            for i in range(d):
                for a in range(d):
                    for b, c in g.bracket(i, a).items():
                        power[b][a] = power[b][a] + PolyTrunc(d, order, {(i,): c})
        else:
            base = [[PolyTrunc.zero(d, order) for _ in range(d)]
                    for _ in range(d)]
            for i in range(d):
                for a in range(d):
                    for b, c in g.bracket(i, a).items():
                        base[b][a] = base[b][a] + PolyTrunc(d, order, {(i,): c})
            power = [[sum((power[b][m] * base[m][a]
                           for m in range(d)),
                          PolyTrunc.zero(d, order)) for a in range(d)]
                     for b in range(d)]
        scale = Q((-1) ** n, factorial(n + 1))
        for b in range(d):
            for a in range(d):
                entries[b][a] = entries[b][a] + power[b][a].scale(scale)
    return matrix_series_det(entries, d, order)


# ---------------------------------------------------------------------------
# polyvector fields and the comparison maps
# ---------------------------------------------------------------------------

class PolyVectors:
    """T_poly on g[1]: the dual odd algebra tensored with S(g) windows."""

    def __init__(self, g: LieAlgebra, sym_cap: int):
        self.g = g
        self.odd = OddSym(g)
        self.dual = DualOdd(g)
        self.sym = SymPoly(g, sym_cap)
        items = []
        for b in self.dual.space.keys:
            for m in self.sym.space.keys:
                items.append(((b, m), len(b)))
        self.space = BasisSpace("Tpoly(%s[1])<=%d" % (g.name, sym_cap), items)
        self._hom_space = None
        self._phi_t = None
        self._d_t = None

    def unit(self):
        return GradedVector.basis(self.space, ((), ()))

    def mul_keys(self, k1, k2) -> GradedVector:
        (b1, m1), (b2, m2) = k1, k2
        out = GradedVector.zero(self.space)
        bprod = self.dual.mul_keys(b1, b2)
        mprod = tuple(sorted(m1 + m2))
        if len(mprod) > self.sym.cap:
            raise WindowOverflow("polyvector degree exceeds the S(g) window")
        for bk, c in bprod.items():
            out.add_term((bk, mprod), c)
        return out

    def mul(self, v, w):
        return bilinear(self.mul_keys, self.space, v, w)

    def hom_space(self) -> BasisSpace:
        """Hom(S(g[1]), S(g)) window with keys (source, value)."""
        if self._hom_space is None:
            items = []
            for y in self.odd.space.keys:
                for m in self.sym.space.keys:
                    items.append(((y, m), len(y)))
            self._hom_space = BasisSpace(
                "Hom(S(%s[1]),Sg)<=%d" % (self.g.name, self.sym.cap), items)
        return self._hom_space

    def phi_t(self) -> GradedMap:
        """The identification with CE cochains: (f (x) m) -> <f, -> m."""
        if self._phi_t is not None:
            return self._phi_t
        hom = self.hom_space()
        out = GradedMap(self.space, hom, 0)
        for (b, m) in self.space.keys:
            col = GradedVector.zero(hom)
            for y in self.odd.space.keys:
                if len(y) != len(b):
                    continue
                c = pair_dual_vec(b, y)
                if c:
                    col.add_term((y, m), c)
            out.set_column((b, m), col, check=False)
        self._phi_t = out
        return out

    def phi_t_inverse(self) -> GradedMap:
        hom = self.hom_space()
        phi = self.phi_t()
        out = GradedMap(hom, self.space, 0)
        # phi_t columns are single signed hom-keys, so inversion is keywise
        inverse_pairs = {}
        for key, col in phi.columns.items():
            items = list(col.coeffs.items())
            if len(items) != 1:
                raise StructuralError("phi_T is not monomial on %r" % (key,))
            hkey, c = items[0]
            inverse_pairs[hkey] = (key, ONE / c)
        for hkey in hom.keys:
            key, c = inverse_pairs[hkey]
            out.set_column(hkey, GradedVector.basis(self.space, key, c),
                           check=False)
        return out

    def ce_differential_on_hom(self) -> GradedMap:
        """d_CE on the Hom(S(g[1]), Sg) window, columnwise."""
        hom = self.hom_space()
        module = ce_module_sym(self.sym)
        out = GradedMap(hom, hom, 1)
        for (y, m) in hom.keys:
            f = GradedMap(self.odd.space, self.sym.space, len(y),
                          columns={y: GradedVector.basis(self.sym.space, m)})
            df = ce_differential(self.odd, module, f)
            col = GradedVector.zero(hom)
            for y2, vec in df.columns.items():
                for m2, c in vec.coeffs.items():
                    col.add_term((y2, m2), c)
            out.set_column((y, m), col, check=False)
        return out

    def d_t(self) -> GradedMap:
        """The Schouten-type differential, conjugated through phi_T."""
        if self._d_t is None:
            self._d_t = self.phi_t_inverse().compose(
                self.ce_differential_on_hom().compose(self.phi_t()))
        return self._d_t


def hkr_cochain(tp: PolyVectors, B: DgAlgebra, t_key, coeff=ONE) -> Cochain:
    """The antisymmetrized cochain of a single polyvector basis key.

    A (0, q)-polyvector lands in arity q; the interior products are averaged
    over all orderings with the printed degree sign on the inputs.
    """
    (bkey, mkey) = t_key
    q = len(mkey)
    r = len(bkey) - q

    def fn(word):
        out = GradedVector.zero(B.space)
        base = GradedVector.basis(tp.dual.space, bkey, coeff)
        scale = Q(1, factorial(q))
        for perm in permutations(range(q)):
            term = base
            exponent = 0
            for i, b in enumerate(word):
                exponent += (q - 1 - i) * len(b)
            vals = []
            ok = True
            for i in range(q):
                x = mkey[perm[i]]
                iv = interior_product(tp.dual, tp.odd, (x,),
                                      GradedVector.basis(tp.dual.space, word[i]))
                if not iv:
                    ok = False
                    break
                vals.append(iv)
            if not ok:
                continue
            prod = term
            for iv in vals:
                prod = tp.dual.mul(prod, iv)
            out.add_inplace(prod, scale * sgn(exponent))
        return out

    return Derived(B, B, q, r, fn, label="hkr%s" % (t_key,))


def hkr(tp: PolyVectors, B: DgAlgebra, t: GradedVector):
    """All arity components of the antisymmetrized embedding of t."""
    parts = {}
    for key, c in t.coeffs.items():
        (bkey, mkey) = key
        q = len(mkey)
        r = len(bkey) - q
        piece = hkr_cochain(tp, B, key, c)
        if (q, r) in parts:
            prev = parts[(q, r)]
            parts[(q, r)] = Derived(
                B, B, q, r,
                lambda w, a=prev, b=piece: a.value(w) + b.value(w),
                label="hkr-sum")
        else:
            parts[(q, r)] = piece
    return parts


def phi2_tilde(f: Cochain, odd: OddSym, ug: UgWindow) -> GradedMap:
    """Antisymmetrized evaluation on shifted words, as a CE cochain."""
    p = f.p
    out = GradedMap(odd.space, ug.space, p + f.r)
    for y in odd.space.keys:
        if len(y) != p:
            out.set_column(y, GradedVector.zero(ug.space), check=False)
            continue
        col = GradedVector.zero(ug.space)
        for perm in permutations(range(p)):
            word = tuple((y[i],) for i in perm)
            col.add_inplace(f.value(word), perm_parity(perm))
        out.set_column(y, col, check=False)
    return out


def convolution_on_hom(odd: OddSym, target_mul, target_space,
                       f: GradedMap, g: GradedMap) -> GradedMap:
    """Convolution product on Hom(S(g[1]), -) with unshuffle signs."""
    out = GradedMap(odd.space, target_space, f.shift + g.shift)
    for key in odd.space.keys:
        col = GradedVector.zero(target_space)
        n = len(key)
        for k in range(n + 1):
            for left, right, sign in odd.coproduct_component(key, k):
                fv = f.columns.get(left)
                if not fv:
                    continue
                gv = g.columns.get(right)
                if not gv:
                    continue
                ssign = sign * sgn(g.shift * (-len(left)))
                for k1, c1 in fv.coeffs.items():
                    for k2, c2 in gv.coeffs.items():
                        col.add_inplace(target_mul(k1, k2), ssign * c1 * c2)
        out.set_column(key, col, check=False)
    return out


# ---------------------------------------------------------------------------
# the pullback complex and its homotopy operator
# ---------------------------------------------------------------------------

class PullbackElement:
    """(A-part, X-part, polyvector part) of the pullback complex."""

    def __init__(self, fA=None, fX=None, t=None):
        self.fA = dict(fA or {})     # (p, r) -> Cochain over Ug
        self.fX = dict(fX or {})     # (p, q, r) -> XCochain
        self.t = t                   # GradedVector in the T_poly window


class DufloContext:
    """Everything needed for the pullback complex on one window."""

    def __init__(self, g: LieAlgebra, pbw_cap: int, sym_cap: int,
                 series_order: int = 4):
        self.g = g
        self.triple = LieTriple(g, pbw_cap)
        self.tp = PolyVectors(g, sym_cap)
        self.ug = self.triple.ug
        self.odd = self.triple.odd
        self.dual = self.triple.dual
        self.A = self.triple.A
        self.B = self.triple.B
        self.X = self.triple.X
        self.sym = self.tp.sym
        self.series_order = series_order
        self.a_ops = BimoduleOps.of_algebra(self.A)
        self.b_ops = BimoduleOps.of_algebra(self.B)
        self.ce_ug = ce_module_ug(self.ug)

    def pullback_differential(self, e: PullbackElement) -> PullbackElement:
        out = PullbackElement(t=None)
        for (p, r), f in sorted(e.fA.items()):
            add_cochain(out.fA, (p + 1, r), hoch_d(f, self.a_ops))
            add_cochain(out.fA, (p, r + 1), hoch_partial(f, self.a_ops))
            add_x_part(out.fX, (p, 0, r), d_ax(f, self.X, self.B))
        for (p, q, r), f in sorted(e.fX.items()):
            add_x_part(out.fX, (p + 1, q, r), d_left(f))
            add_x_part(out.fX, (p, q + 1, r), d_right(f))
            add_x_part(out.fX, (p, q, r + 1), del_x(f))
        if e.t is not None and e.t:
            for (q, r), c in hkr(self.tp, self.B, e.t).items():
                add_x_part(out.fX, (0, q, r), d_xb(c, self.A, self.X))
            out.t = self.tp.d_t()(e.t)
        else:
            out.t = GradedVector.zero(self.tp.space)
        return out

    # -- the homotopy operator ----------------------------------------------

    def homotopy_component(self, f: XCochain) -> GradedMap:
        """h_{p,q,r}: evaluate on the symmetrized coproduct with duals.

        Returns the Hom(S^{p+q+r}(g[1]), Ug) piece as a columnwise map.
        """
        p, q, r = f.p, f.q, f.r
        n = p + q + r
        d = self.g.dimension
        out = GradedMap(self.odd.space, self.ug.space, n)
        s = sgn(q * r + r + q * (q + 1) // 2)
        for y in self.odd.space.keys:
            if len(y) != n:
                continue
            col = GradedVector.zero(self.ug.space)
            for left, right, usign in self.odd.coproduct_component(y, p):
                for perm in permutations(range(p)):
                    aw = tuple((left[i],) for i in perm)
                    psign = perm_parity(perm)
                    for duals in product(range(d), repeat=q):
                        bw = tuple((i,) for i in duals)
                        val = f.value(aw, ((), right), bw)
                        if not val:
                            continue
                        tailword = tuple(reversed(duals))
                        for (u, x), c in val.coeffs.items():
                            if x != ():
                                continue
                            col.add_inplace(
                                self.ug.normal_order(u + tailword),
                                s * usign * psign * c)
            if col:
                out.set_column(y, col, check=False)
        return out

    def homotopy(self, e: PullbackElement) -> GradedMap:
        """h, extended by zero on the A- and T-parts."""
        out = GradedMap(self.odd.space, self.ug.space, 0)
        total = {}
        for key, f in e.fX.items():
            piece = self.homotopy_component(f)
            total.setdefault(piece.shift, []).append(piece)
        if not total:
            return out
        if len(total) > 1:
            # mixed total degrees: return the graded pieces summed per shift
            pieces = []
            for shift, maps in sorted(total.items()):
                acc = maps[0]
                for m in maps[1:]:
                    acc = acc + m
                pieces.append(acc)
            return pieces
        shift, maps = next(iter(total.items()))
        acc = GradedMap(self.odd.space, self.ug.space, shift)
        for m in maps:
            acc = acc + m
        return acc

    def ce_of(self, f: GradedMap) -> GradedMap:
        return ce_differential(self.odd, self.ce_ug, f)

    def psi_1(self, e: PullbackElement, total_degree: int) -> GradedMap:
        out = GradedMap(self.odd.space, self.ug.space, total_degree)
        for (p, r), f in e.fA.items():
            m = phi2_tilde(f, self.odd, self.ug)
            if m.shift != total_degree:
                raise StructuralError("degree mismatch in psi_1")
            out = out + m
        return out

    def psi_2(self, e: PullbackElement, total_degree: int) -> GradedMap:
        out = GradedMap(self.odd.space, self.ug.space, total_degree)
        if e.t is None or not e.t:
            return out
        hom = self.tp.phi_t()(e.t)
        for (y, m), c in hom.coeffs.items():
            vec = pbw_map(self.sym, self.ug,
                          GradedVector.basis(self.sym.space, m, c))
            col = out.columns.get(y)
            base = GradedVector.zero(self.ug.space) if col is None else col
            out.set_column(y, base + vec, check=False)
        return out

    def homotopy_identity_residual(self, e: PullbackElement,
                                   total_degree: int) -> GradedMap:
        """psi_1 - psi_2 - h(D e) - d_CE(h e); zero exactly on the window."""
        lhs = self.psi_1(e, total_degree) - self.psi_2(e, total_degree)
        De = self.pullback_differential(e)
        h_de = self.homotopy(De)
        if isinstance(h_de, list):
            raise StructuralError("mixed degrees in the differential image")
        he = self.homotopy(e)
        rhs = h_de + self.ce_of(he)
        return lhs - rhs


# ---------------------------------------------------------------------------
# class-level route comparison through the bimodule complex
# ---------------------------------------------------------------------------

def koszul_preimage(ctx: DufloContext, cone, t: GradedVector) -> GradedVector:
    """A vector z with d_X z = t, for a d_X-cycle t with vanishing scalar part.

    Uses the filtration homotopy of the augmentation cone: for a cycle the
    homotopy identity collapses to an exact preimage.
    """
    lifted = GradedVector.zero(cone.space)
    for key, c in t.coeffs.items():
        lifted.add_term(("x", key), c)
    img = cone.build_homotopy()(lifted)
    z = GradedVector.zero(ctx.X.space)
    for key, c in img.coeffs.items():
        if key == ("k",):
            raise StructuralError("preimage left the bimodule window")
        z.add_term(key[1], -c)
    check = ctx.X.d_vec(z)
    if check != t:
        raise StructuralError("no exact preimage: class obstruction")
    return z


class LinearValue:
    """A left-linear endomorphism of the bimodule, stored on generators.

    ``gen`` maps S(g[1]) keys to X-window vectors; the full value is the
    Ug-linear extension u (x) y -> u . gen[y].
    """

    def __init__(self, ctx: DufloContext, gen: dict, shift: int):
        self.ctx = ctx
        self.gen = {k: v for k, v in gen.items() if v}
        self.shift = shift

    def apply_key(self, x_key) -> GradedVector:
        (u, y) = x_key
        got = self.gen.get(y)
        if not got:
            return GradedVector.zero(self.ctx.X.space)
        out = GradedVector.zero(self.ctx.X.space)
        for (u2, y2), c in got.coeffs.items():
            for k, c2 in self.ctx.ug.mul_keys(u, u2).items():
                out.add_term((k, y2), c * c2)
        return out

    def apply(self, v: GradedVector) -> GradedVector:
        out = GradedVector.zero(self.ctx.X.space)
        for key, c in v.coeffs.items():
            out.add_inplace(self.apply_key(key), c)
        return out


def null_homotopy(ctx: DufloContext, cone, target_fn, eps: int,
                  absorb=None) -> LinearValue:
    """A left-linear sigma with d_X sigma + eps . sigma d_X = target.

    ``target_fn(x_key)`` evaluates the closed endomorphism to be split.
    Built on generators by induction on the odd length, with exact preimages
    through the augmentation cone; extended left-linearly.

    When ``absorb`` is given, a degree-zero augmentation obstruction at a
    generator is passed to ``absorb(y, value)`` (which must update the
    target) instead of raising; otherwise an obstruction raises.
    """
    gen = {}
    sigma = LinearValue(ctx, gen, 0)
    keys = sorted(ctx.odd.space.keys, key=len)
    for y in keys:
        x_key = ((), y)
        t = target_fn(x_key) - sigma.apply(ctx.X.d_key(x_key)).scale(eps)
        if not t:
            continue
        if absorb is not None:
            ob = ZERO
            for k, c in t.coeffs.items():
                ob += c * ctx.triple.epsilon(k)
            if ob:
                absorb(y, ob)
                t = target_fn(x_key) - sigma.apply(
                    ctx.X.d_key(x_key)).scale(eps)
                if not t:
                    continue
        gen[y] = koszul_preimage(ctx, cone, t)
        sigma.gen = {k: v for k, v in gen.items() if v}
    return sigma


def lift_central_through_projection(ctx: DufloContext, u0: GradedVector,
                                    depth: int = None, max_extra: int = 2):
    """Trio cocycle (u0, f_X, f_B) over a central element of the window.

    Solves the bimodule-part equation by the arity staircase: all values are
    left-linear (so the arity-raising left component vanishes identically)
    and each stage is a valuewise null homotopy, driven entirely through the
    trio evaluators.  Augmentation obstructions met along the way are
    absorbed into the B-part, so the projection to the dual odd algebra is
    computed, not prescribed.

    Returns ``(components, fB)``: the X-part as LinearXCochain components and
    the discovered dual-valued cochains.
    """
    from .keller import AugmentationCone
    from .hochschild import Cochain
    d = ctx.g.dimension
    depth = depth if depth is not None else ctx.triple.pbw_cap
    cone = AugmentationCone(ctx.triple, depth)
    letters = list(ctx.dual.space.keys)
    fA = Cochain(ctx.A, ctx.A, 0, 0, columns={(): u0}, label="u0")
    dax = d_ax(fA, ctx.X, ctx.B)

    fB_cols = {}

    def word_order(words):
        return sorted(words, key=lambda w: (-sum(len(b) for b in w), w))

    components = {}
    q = 0
    quiet = 0
    while q <= d + max_extra:
        r = -1 - q
        prev = components.get(q - 1)
        d_prev = d_right(prev) if prev is not None else None
        columns = {}
        current = LinearXCochain(ctx, 0, q, r, columns)
        del_current = del_x(current)
        words = [()] if q == 0 else             [w + (b,) for w in _dual_words(letters, q - 1) for b in letters]
        changed = False
        for bw in word_order(words):
            # live view: the absorber mutates these vectors in place
            fB_cols.setdefault(q, {}).setdefault(
                bw, GradedVector.zero(ctx.dual.space))
            live = Cochain(ctx.B, ctx.B, q, -q, columns=fB_cols[q],
                           label="fB%d" % q)
            dxb_q = d_xb(live, ctx.A, ctx.X)

            def target(x_key, bw=bw, dxb_q=dxb_q):
                out = GradedVector.zero(ctx.X.space)
                if q == 0:
                    out.add_inplace(dax.value((), x_key, ()), -1)
                if d_prev is not None:
                    out.add_inplace(d_prev.value((), x_key, bw), -1)
                out.add_inplace(dxb_q.value((), x_key, bw), -1)
                # couplings to already-solved words of this stage
                out.add_inplace(del_current.value((), x_key, bw), -1)
                return out

            def absorb(y, ob, bw=bw):
                dkey = ctx.dual.dual_key_of(y)
                delta = Cochain(ctx.B, ctx.B, q, -q, columns={
                    bw: GradedVector.basis(ctx.dual.space, dkey)})
                probe = d_xb(delta, ctx.A, ctx.X).value((), ((), y), bw)
                coeff = ZERO
                for k, c in probe.coeffs.items():
                    coeff += c * ctx.triple.epsilon(k)
                if not coeff:
                    raise StructuralError(
                        "cannot absorb obstruction at %r" % (y,))
                col = fB_cols.setdefault(q, {}).setdefault(
                    bw, GradedVector.zero(ctx.dual.space))
                col.add_term(dkey, ob / coeff)

            sigma = null_homotopy(ctx, cone, target, sgn(q), absorb=absorb)
            if sigma.gen:
                changed = True
            columns[bw] = sigma
        components[q] = current
        if not changed and not fB_cols.get(q):
            quiet += 1
            if quiet >= 2 and q >= d:
                break
        else:
            quiet = 0
        q += 1

    fB = {}
    for qq in sorted(fB_cols):
        cols = {bw: v for bw, v in fB_cols[qq].items() if v}
        if cols:
            fB[(qq, -qq)] = Cochain(ctx.B, ctx.B, qq, -qq, columns=cols,
                                    label="fB%d" % qq)
    components = {qq: c for qq, c in components.items()
                  if any(s.gen for s in c.columns.values())}
    return components, fB


def _dual_words(letters, q):
    words = [()]
    for _ in range(q):
        words = [w + (b,) for w in words for b in letters]
    return words


class LinearXCochain(XCochain):
    """X-part cochain with left-linear values stored per dual word."""

    def __init__(self, ctx: DufloContext, p, q, r, columns):
        super().__init__(ctx.A, ctx.X, ctx.B, p, q, r, label="lin%d" % q)
        self.ctx = ctx
        self.columns = columns      # dict bw -> LinearValue

    def value(self, aw, xk, bw):
        aw, bw = tuple(aw), tuple(bw)
        if len(aw) != self.p or len(bw) != self.q:
            raise StructuralError("tridegree mismatch in %s" % self.label)
        got = self.columns.get(bw)
        if got is None:
            return GradedVector.zero(self.X.space)
        return got.apply_key(xk)


def lift_residuals(ctx: DufloContext, u0: GradedVector, components: dict,
                   fB: dict, x_keys, max_q: int = None, a_letters=None):
    """Residual of the full bimodule-part cocycle equation on a window.

    Evaluates d_ax(u0) + (L + R + del)(f_X) + d_xb(f_B) componentwise through
    the trio evaluators, including the left component (which vanishes for
    left-linear values).
    """
    from .hochschild import Cochain
    d = ctx.g.dimension
    max_q = max_q if max_q is not None else d + 2
    letters = list(ctx.dual.space.keys)
    a_letters = a_letters or [k for k in ctx.ug.space.keys if len(k) <= 1]
    fA = Cochain(ctx.A, ctx.A, 0, 0, columns={(): u0}, label="u0")
    pieces = {}
    add_x_part(pieces, (0, 0, 0), d_ax(fA, ctx.X, ctx.B))
    for q, comp in components.items():
        add_x_part(pieces, (1, q, -1 - q), d_left(comp))
        add_x_part(pieces, (0, q + 1, -1 - q), d_right(comp))
        add_x_part(pieces, (0, q, -q), del_x(comp))
    for (q, rB), f in fB.items():
        add_x_part(pieces, (0, q, rB), d_xb(f, ctx.A, ctx.X))

    bad = []
    for (p, q, r), piece in sorted(pieces.items()):
        if q > max_q:
            continue
        words = _dual_words(letters, q)
        for bw in words:
            for xk in x_keys:
                for aw in ([()] if p == 0 else [(a,) for a in a_letters]):
                    try:
                        val = piece.value(aw, xk, bw)
                    except WindowOverflow:
                        continue
                    if val:
                        bad.append(((p, q, r), aw, xk, bw, val))
    return bad


def random_pullback_element(ctx: DufloContext, total_degree: int, seed: int,
                            tri_cap: int = 3, letters_pbw: int = 1,
                            value_pbw: int = 2) -> PullbackElement:
    """Seeded random element of the pullback complex at one total degree."""
    fA = {}
    if total_degree >= 0:
        p = total_degree
        a_letters = [k for k in ctx.ug.space.keys if len(k) <= letters_pbw + 1]
        fA[(p, 0)] = Cochain(
            ctx.A, ctx.A, p, 0, seed=derive_seed("fa", seed),
            letters=a_letters,
            value_keys=[k for k in ctx.ug.space.keys if len(k) <= value_pbw],
            label="fa%d" % seed)
    fX = {}
    a_letters = [k for k in ctx.ug.space.keys if len(k) <= letters_pbw + 1]
    x_letters = [k for k in ctx.X.space.keys if len(k[0]) <= letters_pbw]
    b_letters = [k for k in ctx.dual.space.keys if len(k) <= 2]
    value_keys = [k for k in ctx.X.space.keys if len(k[0]) <= value_pbw]
    for p in range(0, tri_cap + 1):
        for q in range(0, tri_cap + 1 - p):
            r = total_degree - 1 - p - q
            if p + q + abs(r) > tri_cap + 1:
                continue
            fX[(p, q, r)] = XCochain(
                ctx.A, ctx.X, ctx.B, p, q, r,
                seed=derive_seed("fx", seed, p, q, r),
                a_letters=a_letters, x_letters=x_letters,
                b_letters=b_letters, value_keys=value_keys,
                label="fx%d.%d.%d.%d" % (seed, p, q, r))
    t = random_vector(ctx.tp.space, total_degree, derive_seed("t", seed))
    capped = GradedVector(
        ctx.tp.space,
        {k: c for k, c in t.coeffs.items() if len(k[1]) <= ctx.sym.cap - 1})
    return PullbackElement(fA=fA, fX=fX, t=capped)
