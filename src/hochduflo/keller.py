"""The enveloping-algebra bimodule triple and its explicit homotopies.

For a finite-dimensional Lie algebra g the triple is (Ug, Ug (x) S(g[1]),
S(g[1])^): Ug concentrated in degree zero, the dual odd algebra with its
Chevalley-Eilenberg differential, and the Koszul-type bimodule between them.
This module builds the triple on PBW windows and provides:

* the differential, the two actions and the augmentation splitting,
* the top-form contractions and their identities,
* the one-sided homotopy operators certifying exactness of both partial
  Hochschild sequences,
* the filtration-compatible contracting homotopy on the augmentation cone,
  built inductively with elimination-minimal preimages,
* the tail-vanishing operator sequence on Hochschild cochains valued in an
  acyclic module with a chosen contracting homotopy.
"""

from __future__ import annotations

from fractions import Fraction

from .signs import sgn
from .exact import (ZERO, ONE, BasisSpace, GradedMap, GradedVector,
                    StructuralError, WindowOverflow, derive_seed,
                    random_vector, rows_solve)
from .liealg import LieAlgebra, UgWindow, OddSym, DualOdd, contract, cocontract
from .hochschild import (DgAlgebra, WordCochain, dual_odd_algebra, hoch_d,
                         ug_algebra)
from .trio import Bimodule, XCochain, XDerived


class LieTriple:
    """The triple (Ug, Ug (x) S(g[1]), S(g[1])^) on a PBW window."""

    def __init__(self, g: LieAlgebra, pbw_cap: int):
        report = g.validate()
        if not report.ok:
            raise StructuralError("Jacobi fails at %s" %
                                  (report.jacobi_violations[:1],))
        self.g = g
        self.pbw_cap = pbw_cap
        self.ug = UgWindow(g, pbw_cap)
        self.odd = OddSym(g)
        self.dual = DualOdd(g)
        self.A = ug_algebra(self.ug)
        self.B = dual_odd_algebra(self.dual, self.odd)
        items = []
        for u in self.ug.space.keys:
            for x in self.odd.space.keys:
                items.append(((u, x), -len(x)))
        self.x_space = BasisSpace("Ug(x)S(%s[1])<=%d" % (g.name, pbw_cap), items)
        self.X = Bimodule(self.x_space, self._lmul_key, self._rmul_key,
                          self._d_x_key, name=self.x_space.name)

    # -- bimodule structure -------------------------------------------------

    def _lmul_key(self, a_key, x_key) -> GradedVector:
        u, x = x_key
        out = GradedVector.zero(self.x_space)
        for k, c in self.ug.mul_keys(a_key, u).items():
            out.add_term((k, x), c)
        return out

    def _rmul_key(self, x_key, b_key) -> GradedVector:
        u, x = x_key
        out = GradedVector.zero(self.x_space)
        contracted = contract(self.odd,
                              GradedVector.basis(self.odd.space, x), b_key)
        for k, c in contracted.items():
            out.add_term((u, k), c)
        return out

    def _d_x_key(self, x_key) -> GradedVector:
        """d_X(u (x) x_1...x_n): the Koszul term plus the bracket term."""
        u, x = x_key
        n = len(x)
        out = GradedVector.zero(self.x_space)
        for i in range(n):
            rest = x[:i] + x[i + 1:]
            for k, c in self.ug.mul_keys(u, (x[i],)).items():
                out.add_term((k, rest), sgn(i) * c)       # (-1)^{i+1}, 1-based
        bracket = self.odd.coderivation_bracket_key(x)
        for ykey, c in bracket.items():
            out.add_term((u, ykey), c)
        return out

    # -- actions and the augmentation ---------------------------------------

    def rho_a(self, a_vec: GradedVector) -> GradedMap:
        """Left multiplication; covers the keys whose product fits."""
        columns = {}
        covered = []
        failed = False
        for key in self.x_space.keys:
            col = GradedVector.zero(self.x_space)
            try:
                for ak, c in a_vec.coeffs.items():
                    col.add_inplace(self._lmul_key(ak, key), c)
            except WindowOverflow:
                failed = True
                continue
            covered.append(key)
            columns[key] = col
        out = GradedMap(self.x_space, self.x_space, 0,
                        covered=covered if failed else None)
        for key, col in columns.items():
            out.set_column(key, col, check=False)
        return out

    def rho_b(self, b_vec: GradedVector) -> GradedMap:
        shift = b_vec.degree() or 0
        out = GradedMap(self.x_space, self.x_space, shift)
        for key in self.x_space.keys:
            xdeg = self.x_space.degree[key]
            col = GradedVector.zero(self.x_space)
            for bk, c in b_vec.coeffs.items():
                col.add_inplace(self._rmul_key(key, bk),
                                c * sgn(xdeg * len(bk)))
            out.set_column(key, col, check=False)
        return out

    def epsilon(self, x_key) -> Fraction:
        """Augmentation X ->> Ug ->> k (kills generators and S^{>0})."""
        u, x = x_key
        if x:
            return ZERO
        return ONE if u == () else ZERO

    def eps_star(self, phi: GradedMap) -> GradedVector:
        """The splitting Hom_{Ug}(X, X) -> S(g[1])^ via the augmentation."""
        out = GradedVector.zero(self.dual.space)
        for x in self.odd.space.keys:
            val = ZERO
            for key, c in phi(((), x)).items():
                val += c * self.epsilon(key)
            if val:
                out.add_term(self.dual.dual_key_of(x), val)
        return out

    # -- top form -----------------------------------------------------------

    def top_form_pair(self):
        return self.odd.top_key, self.dual.top_key

    def top_form_residuals(self):
        """Residuals of the two top-form identities over the full bases."""
        d = self.g.dimension
        omega, tau = self.top_form_pair()
        bad = []
        for x in self.odd.space.keys:
            tx = cocontract(self.dual, GradedVector.basis(self.dual.space, tau), x)
            lhs = GradedVector.zero(self.odd.space)
            for bk, c in tx.items():
                lhs.add_inplace(
                    contract(self.odd, GradedVector.basis(self.odd.space, omega), bk), c)
            rhs = GradedVector.basis(self.odd.space, x, sgn(d + len(x)))
            if lhs != rhs:
                bad.append(("i", x, lhs, rhs))
        for x in self.odd.space.keys:
            for b in self.dual.space.keys:
                xb = contract(self.odd, GradedVector.basis(self.odd.space, x), b)
                lhs = GradedVector.zero(self.dual.space)
                for xk, c in xb.items():
                    lhs.add_inplace(
                        cocontract(self.dual,
                                   GradedVector.basis(self.dual.space, tau), xk), c)
                tx = cocontract(self.dual,
                                GradedVector.basis(self.dual.space, tau), x)
                rhs = GradedVector.zero(self.dual.space)
                for tk, c in tx.items():
                    rhs.add_inplace(self.dual.mul_keys(tk, b), c)
                rhs = rhs.scale(sgn(len(b)))
                if lhs != rhs:
                    bad.append(("ii", x, b, lhs, rhs))
        return bad

    # -- one-sided homotopy operators ---------------------------------------

    def h_right(self, f: XCochain) -> XCochain:
        """h_R: lowers the B-arity by one using the top-form contraction.

        Defined for any A-arity p; the letters in the A-slots are inert
        because Ug is concentrated in degree zero.
        """
        if f.q < 1:
            raise StructuralError("h_R needs at least one B-slot")
        p, q, r = f.p, f.q - 1, f.r
        d = self.g.dimension
        omega, tau = self.top_form_pair()

        def fn(aw, xk, bw):
            u, x = xk
            tx = cocontract(self.dual,
                            GradedVector.basis(self.dual.space, tau), x)
            out = GradedVector.zero(self.x_space)
            for bk, c in tx.items():
                out.add_inplace(f.value(aw, (u, omega), (bk,) + tuple(bw)), c)
            return out.scale(sgn(q + r + 1) * sgn(d + len(x)))

        return XDerived(f.A, f.X, f.B, p, q, r, fn, label="hR(%s)" % f.label)

    def h_left(self, f: XCochain) -> XCochain:
        """h_L: lowers the A-arity by moving the Ug-factor into the last slot.

        Extended to q > 0 B-slots with the extra (-1)^q matching the
        q-dependence of the left Hochschild component.
        """
        if f.p < 1:
            raise StructuralError("h_L needs at least one A-slot")
        p, q, r = f.p - 1, f.q, f.r

        def fn(aw, xk, bw):
            u, x = xk
            out = f.value(tuple(aw) + (u,), ((), x), bw)
            return out.scale(sgn(r + 1 + q))

        return XDerived(f.A, f.X, f.B, p, q, r, fn, label="hL(%s)" % f.label)

    # -- random structured endomorphism values ------------------------------

    def random_blinear_end(self, shift: int, seed: int,
                           value_pbw: int) -> GradedMap:
        """Random right-B-linear endomorphism via the free cogenerator.

        Lift of a random psi: X -> Ug through the coaction; right linearity
        holds by construction and is checked in tests.
        """
        out = GradedMap(self.x_space, self.x_space, shift)
        psi = {}
        for key in self.x_space.keys:
            deg = self.x_space.degree[key] + shift
            if deg != 0:
                continue
            vec = random_vector(self.ug.space, 0,
                                derive_seed("blin", seed, key))
            psi[key] = GradedVector(
                self.ug.space,
                {k: c for k, c in vec.coeffs.items() if len(k) <= value_pbw})
        for (u, x) in self.x_space.keys:
            col = GradedVector.zero(self.x_space)
            n = len(x)
            for k in range(n + 1):
                for left, right, sign in self.odd.coproduct_component(x, k):
                    got = psi.get((u, left))
                    if got:
                        for uk, c in got.coeffs.items():
                            col.add_term((uk, right), sign * c)
            out.set_column((u, x), col, check=False)
        return out

    def random_alinear_end(self, shift: int, seed: int,
                           value_pbw: int) -> GradedMap:
        """Random left-A-linear endomorphism: free on the S(g[1]) slots.

        The Ug-linear extension u (x) x -> u . phi0(x) only fits in the
        window for PBW words of length <= cap - value_pbw, so the result is
        a PartialMap that refuses loudly beyond that region.
        """
        from .exact import PartialMap
        base = {}
        for x in self.odd.space.keys:
            deg = -len(x) + shift
            vec = random_vector(self.x_space, deg,
                                derive_seed("alin", seed, x))
            base[x] = GradedVector(
                self.x_space,
                {k: c for k, c in vec.coeffs.items() if len(k[0]) <= value_pbw})
        covered = [k for k in self.x_space.keys
                   if len(k[0]) + value_pbw <= self.pbw_cap]
        out = PartialMap(self.x_space, self.x_space, shift, covered)
        for (u, x) in covered:
            got = base[x]
            col = GradedVector.zero(self.x_space)
            for (u2, x2), c in got.coeffs.items():
                for k, c2 in self.ug.mul_keys(u, u2).items():
                    col.add_term((k, x2), c * c2)
            out.set_column((u, x), col, check=False)
        return out

    def blinear_defects(self, phi: GradedMap):
        """Right-B-linearity defects phi(x.b) - phi(x).b over the bases."""
        bad = []
        for key in self.x_space.keys:
            for b in self.dual.space.keys:
                if not b:
                    continue
                lhs = GradedVector.zero(self.x_space)
                for k, c in self._rmul_key(key, b).items():
                    lhs.add_inplace(phi(k), c)
                rhs = GradedVector.zero(self.x_space)
                for k, c in phi(key).items():
                    rhs.add_inplace(self._rmul_key(k, b), c)
                if lhs != rhs:
                    bad.append((key, b))
        return bad

    def alinear_defects(self, phi: GradedMap):
        """Left-A-linearity defects phi(a.x) - a.phi(x) on generators.

        Keys whose defect would leave the covered window of a partial map
        are skipped (they are not honest test points).
        """
        bad = []
        for key in self.x_space.keys:
            if len(key[0]) >= self.pbw_cap:
                continue
            for i in range(self.g.dimension):
                try:
                    lhs = GradedVector.zero(self.x_space)
                    for k, c in self._lmul_key((i,), key).items():
                        lhs.add_inplace(phi(k), c)
                    rhs = self.X.lmul((i,), phi(key))
                except WindowOverflow:
                    continue
                if lhs != rhs:
                    bad.append((key, i))
        return bad


# ---------------------------------------------------------------------------
# the augmentation cone and its filtration homotopy
# ---------------------------------------------------------------------------

class AugmentationCone:
    """Cone of the augmentation X -> k, with its PBW-plus-odd filtration.

    Basis keys are ("x", (u, x)) of degree deg_X - 1 and the single ("k",)
    of degree 0; the filtration level of an X-key is the total word length.
    """

    def __init__(self, triple: LieTriple, depth: int):
        self.triple = triple
        self.depth = depth
        if depth > triple.pbw_cap:
            raise WindowOverflow(
                "cone depth %d needs a PBW window of at least %d"
                % (depth, depth))
        items = [(("k",), 0)]
        for key in triple.x_space.keys:
            if len(key[0]) + len(key[1]) <= depth:
                items.append((("x", key), triple.x_space.degree[key] - 1))
        self.space = BasisSpace("Cone(eps)<=%d" % depth, items)
        self._homotopy = None

    def level(self, key) -> int:
        if key == ("k",):
            return 0
        (u, x) = key[1]
        return len(u) + len(x)

    def differential(self) -> GradedMap:
        out = GradedMap(self.space, self.space, 1)
        for key in self.space.keys:
            if key == ("k",):
                out.set_column(key, GradedVector.zero(self.space), check=False)
                continue
            xkey = key[1]
            col = GradedVector.zero(self.space)
            for k, c in self.triple._d_x_key(xkey).items():
                col.add_term(("x", k), -c)
            eps = self.triple.epsilon(xkey)
            if eps:
                col.add_term(("k",), eps)
            out.set_column(key, col, check=False)
        return out

    def build_homotopy(self) -> GradedMap:
        """Inductive contracting homotopy with the filtration containments.

        Basis vectors are processed in lexicographic (level, odd-length,
        PBW-word) order; each preimage is the elimination-minimal solution
        inside the PBW-degree-dropping slot, which forces both h(F) c F and
        the degree-drop containment.
        """
        if self._homotopy is not None:
            return self._homotopy
        d_cone = self.differential()
        h = GradedMap(self.space, self.space, -1)

        def allowed_slots(l_bound, k_target, degree):
            keys = []
            for key in self.space.keys:
                if key == ("k",):
                    continue
                (u, x) = key[1]
                if len(x) == k_target and len(u) <= l_bound \
                        and self.space.degree[key] == degree:
                    keys.append(key)
            return keys

        order = sorted(
            (key for key in self.space.keys),
            key=lambda key: (self.level(key),
                             len(key[1][1]) if key != ("k",) else -1,
                             key[1][0] if key != ("k",) else ()))
        for key in order:
            if key == ("k",):
                h.set_column(key, GradedVector.basis(
                    self.space, ("x", ((), ()))), check=False)
                continue
            (u, x) = key[1]
            v = GradedVector.basis(self.space, key)
            target = v - h(d_cone(v))
            if not target:
                h.set_column(key, GradedVector.zero(self.space), check=False)
                continue
            slots = allowed_slots(len(u) - 1, len(x) + 1,
                                  self.space.degree[key] - 1)
            rows_keys = sorted({k for k in self.space.keys
                                if self.space.degree[k] ==
                                self.space.degree[key]},
                               key=repr)
            index = {k: i for i, k in enumerate(rows_keys)}
            mat = [[ZERO] * len(slots) for _ in rows_keys]
            for j, skey in enumerate(slots):
                for tkey, c in d_cone.column(skey).coeffs.items():
                    mat[index[tkey]][j] = c
            rhs = [target.coeff(k) for k in rows_keys]
            sol = rows_solve(mat, rhs)
            if sol is None:
                raise StructuralError(
                    "no filtration-compatible preimage at %r" % (key,))
            col = GradedVector.zero(self.space)
            for j, c in enumerate(sol):
                if c:
                    col.add_term(slots[j], c)
            h.set_column(key, col, check=False)
        self._homotopy = h
        return h

    def homotopy_residuals(self):
        """d h + h d - id on every basis vector; must be empty."""
        d_cone = self.differential()
        h = self.build_homotopy()
        bad = []
        for key in self.space.keys:
            v = GradedVector.basis(self.space, key)
            res = d_cone(h(v)) + h(d_cone(v)) - v
            if res:
                bad.append((key, res))
        return bad

    def containment_violations(self):
        """h(F^{-p}) c F^{-p} and the PBW-degree drop, swept on the basis."""
        h = self.build_homotopy()
        bad = []
        for key in self.space.keys:
            col = h.column(key)
            lvl = self.level(key)
            if key == ("k",):
                ubound = 0
            else:
                ubound = len(key[1][0]) - 1
            for tkey, _ in col.coeffs.items():
                if tkey == ("k",):
                    bad.append((key, tkey, "k-component"))
                    continue
                if self.level(tkey) > lvl:
                    bad.append((key, tkey, "filtration"))
                if len(tkey[1][0]) > max(ubound, 0):
                    bad.append((key, tkey, "pbw-drop"))
        return bad


# ---------------------------------------------------------------------------
# tail-vanishing machinery on Hochschild cochains with module values
# ---------------------------------------------------------------------------

class ModuleWithHomotopy:
    """Duck-typed acyclic bimodule: values with actions and a homotopy.

    Required piece: ``zero(degree)``, ``add(m1, m2)``, ``scale(m, c)``,
    ``is_zero(m)``, ``d(m)``, ``h(m)``, ``lmul(a_key, m)``, ``rmul(m, a_key)``
    -- the value-module protocol of :func:`hochschild.hoch_d` plus the
    homotopy.
    """

    def __init__(self, **ops):
        for name in ("zero", "add", "scale", "is_zero", "d", "h",
                     "lmul", "rmul"):
            setattr(self, name, ops[name])


class ModuleCochain(WordCochain):
    """Hom(A^{(x)p}, M) cochain of degree r with duck-typed module values."""

    def __init__(self, algebra: DgAlgebra, module: ModuleWithHomotopy,
                 p: int, fn, label="", r=0):
        self.algebra = algebra
        self.module = self.values = module
        self.p = p
        self.r = r
        self._fn = fn
        self.label = label

    def value(self, word):
        word = tuple(word)
        if len(word) != self.p:
            raise StructuralError("arity mismatch in %s" % self.label)
        return self._fn(word)

    def derived(self, p, r, fn, label) -> "ModuleCochain":
        return ModuleCochain(self.algebra, self.module, p, fn, label=label,
                             r=r)


def module_H(f: ModuleCochain, r: int) -> ModuleCochain:
    """H f for f of degree r: the homotopy applied valuewise, degree r-1."""
    M = f.module

    def fn(word):
        return M.h(f.value(word))

    return ModuleCochain(f.algebra, M, f.p, fn, label="H(%s)" % f.label,
                         r=r - 1)


def frak_h_sequence(f: ModuleCochain, r: int, k_max: int):
    """The operators (H d_H)^k H f for k = 0..k_max, lazily chained."""
    current = module_H(f, r)
    out = [(current, current.r)]
    for _ in range(k_max):
        current = module_H(hoch_d(current, current.module), current.r)
        out.append((current, current.r))
    return out


def frak_h_vanishing_index(f: ModuleCochain, r: int, k_max: int, words_fn):
    """First index past which all later tails vanish on the sampled words."""
    seq = frak_h_sequence(f, r, k_max)
    last_nonzero = -1
    for k, (hk, _deg) in enumerate(seq):
        nonzero = False
        for word in words_fn(f.p + k):
            if not f.module.is_zero(hk.value(word)):
                nonzero = True
                break
        if nonzero:
            last_nonzero = k
    return last_nonzero, seq


# ---------------------------------------------------------------------------
# the cone of the left action for the one-dimensional Lie algebra
# ---------------------------------------------------------------------------

class AbelianActionCone:
    """Cone of the left action map for the one-dimensional Lie algebra.

    Degrees -1, 0, +1 carry the enveloping window, endomorphisms, and
    endomorphisms again; the differential sends a window element to left
    multiplication and an endomorphism to its right-multiplication defect.
    Bounded below by -1; the explicit homotopy evaluates at the unit and
    rebuilds by the division recursion, so d h + h d = id holds exactly on
    the window and the tail bound k > s + 1 applies.
    """

    def __init__(self, dom_cap: int, val_cap: int):
        from .liealg import LieAlgebra, UgWindow
        self.g = LieAlgebra.abelian(1)
        self.dom = UgWindow(self.g, dom_cap)
        self.val = UgWindow(self.g, val_cap)
        self.dom_cap = dom_cap
        self.val_cap = val_cap

    def zero(self, degree=0):
        """The zero element; cone elements carry no degree of their own."""
        return (GradedVector.zero(self.val.space),
                GradedMap(self.dom.space, self.val.space, 0),
                GradedMap(self.dom.space, self.val.space, 0))

    def element(self, v=None, g0=None, g1=None):
        z = self.zero()
        return (v if v is not None else z[0],
                g0 if g0 is not None else z[1],
                g1 if g1 is not None else z[2])

    def add(self, m1, m2):
        return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])

    def scale(self, m, c):
        return (m[0].scale(c), m[1].scale(c), m[2].scale(c))

    def is_zero(self, m):
        return m[0].is_zero() and m[1].is_zero() and m[2].is_zero()

    def _rho(self, v: GradedVector) -> GradedMap:
        out = GradedMap(self.dom.space, self.val.space, 0)
        for u in self.dom.space.keys:
            col = GradedVector.zero(self.val.space)
            for ak, c in v.coeffs.items():
                col.add_inplace(self.val.normal_order(ak + u), c)
            out.set_column(u, col, check=False)
        return out

    def _covered(self, g: GradedMap):
        if g.covered is None:
            return {k for k in self.dom.space.keys}
        return set(g.covered)

    def _defect(self, g: GradedMap) -> GradedMap:
        """g(.)t - g(. t): the degree-raising piece of the differential.

        The domain coverage shrinks by one slot at the window top.
        """
        t = (0,)
        base = self._covered(g)
        covered = [u for u in base if (u + t) in base]
        out = GradedMap(self.dom.space, self.val.space, 0, covered=covered)
        for u in covered:
            col = self.val.mul(g.column(u), GradedVector.basis(self.val.space, t)) \
                - g.column(u + t)
            out.set_column(u, col, check=False)
        return out

    def d(self, m):
        v, g0, g1 = m
        return (GradedVector.zero(self.val.space),
                self._rho(v), self._defect(g0))

    def h(self, m):
        v, g0, g1 = m
        base = self._covered(g0) & self._covered(g1)
        h0 = g0.column(()) if () in base else GradedVector.zero(self.val.space)
        # division recursion: G(1) = 0, G(t^{n}) = G(t^{n-1}) t - psi(t^{n-1})
        t = (0,)
        covered = [()]
        columns = {}
        prev = GradedVector.zero(self.val.space)
        n = 0
        while ((0,) * n) in base and n + 1 <= self.dom_cap:
            step = self.val.mul(prev, GradedVector.basis(self.val.space, t)) \
                - g1.column((0,) * n)
            columns[(0,) * (n + 1)] = step
            covered.append((0,) * (n + 1))
            prev = step
            n += 1
        G = GradedMap(self.dom.space, self.val.space, 0, covered=covered)
        for u, col in columns.items():
            G.set_column(u, col, check=False)
        zero = GradedMap(self.dom.space, self.val.space, 0)
        return (h0, G, zero)

    def lmul(self, a_key, m):
        v, g0, g1 = m
        av = self.val.mul(GradedVector.basis(self.val.space, a_key), v)

        def act(g):
            covered = self._covered(g)
            out = GradedMap(self.dom.space, self.val.space, 0,
                            covered=None if g.covered is None else covered)
            for u in covered:
                out.set_column(u, self.val.mul(
                    GradedVector.basis(self.val.space, a_key), g.column(u)),
                    check=False)
            return out

        return (av, act(g0), act(g1))

    def rmul(self, m, a_key):
        v, g0, g1 = m
        va = self.val.mul(v, GradedVector.basis(self.val.space, a_key))

        def act(g):
            base = self._covered(g)
            covered = [u for u in base
                       if tuple(sorted(a_key + u)) in base]
            out = GradedMap(self.dom.space, self.val.space, 0, covered=covered)
            for u in covered:
                out.set_column(u, g.column(tuple(sorted(a_key + u))),
                               check=False)
            return out

        return (va, act(g0), act(g1))

    def module(self) -> ModuleWithHomotopy:
        return ModuleWithHomotopy(
            zero=self.zero, add=self.add, scale=self.scale,
            is_zero=self.is_zero, d=self.d, h=self.h,
            lmul=self.lmul, rmul=self.rmul)

    def degree_bound(self) -> int:
        """Values vanish below degree -1, so tails die past s + 1."""
        return 1


# ---------------------------------------------------------------------------
# exactness certificates for the two one-sided sequences
# ---------------------------------------------------------------------------

def row_exactness_certificate(triple: LieTriple, side: str, p: int, q: int,
                              r: int, seed: int, n_inputs: int = 50,
                              letters_pbw: int = 1, value_pbw: int = None):
    """Residual sweep of one homotopy identity on seeded random cochains.

    ``side`` is "R" (the sequence contracted by h_R) or "L" (by h_L);
    returns the list of inputs where the residual fails to vanish.
    """
    import random as _random
    from .trio import random_x_cochain, d_right, d_left
    if value_pbw is None:
        value_pbw = max(triple.pbw_cap - 2, 1)
    a_pool = [k for k in triple.ug.space.keys if len(k) <= letters_pbw]
    x_pool = [k for k in triple.x_space.keys if len(k[0]) <= letters_pbw]
    b_pool = list(triple.dual.space.keys)
    rng = _random.Random(derive_seed("rowexact", side, p, q, r, seed))
    bad = []
    if side == "R":
        f = random_x_cochain(
            triple.A, triple.X, triple.B, p, q + 1, r, seed,
            a_letters=[k for k in triple.ug.space.keys if len(k) <= letters_pbw + 1],
            x_letters=[k for k in triple.x_space.keys
                       if len(k[0]) <= letters_pbw + 1],
            b_letters=b_pool,
            value_keys=[k for k in triple.x_space.keys
                        if len(k[0]) <= value_pbw])
        lhs1 = d_right(triple.h_right(f))
        lhs2 = triple.h_right(d_right(f))
        for _ in range(n_inputs):
            aw = tuple(rng.choice(a_pool) for _ in range(p))
            xk = rng.choice(x_pool)
            bw = tuple(rng.choice(b_pool) for _ in range(q + 1))
            res = lhs1.value(aw, xk, bw) + lhs2.value(aw, xk, bw) \
                - f.value(aw, xk, bw)
            if res:
                bad.append((aw, xk, bw, res))
    elif side == "L":
        f = random_x_cochain(
            triple.A, triple.X, triple.B, p + 1, q, r, seed,
            a_letters=[k for k in triple.ug.space.keys if len(k) <= letters_pbw + 1],
            x_letters=[k for k in triple.x_space.keys
                       if len(k[0]) <= letters_pbw + 1],
            b_letters=b_pool,
            value_keys=[k for k in triple.x_space.keys
                        if len(k[0]) <= value_pbw])
        lhs1 = d_left(triple.h_left(f))
        lhs2 = triple.h_left(d_left(f))
        for _ in range(n_inputs):
            aw = tuple(rng.choice(a_pool) for _ in range(p + 1))
            xk = rng.choice(x_pool)
            bw = tuple(rng.choice(b_pool) for _ in range(q))
            res = lhs1.value(aw, xk, bw) + lhs2.value(aw, xk, bw) \
                - f.value(aw, xk, bw)
            if res:
                bad.append((aw, xk, bw, res))
    else:
        raise StructuralError("side must be R or L")
    return bad


def kernel_dimension_match(triple: LieTriple, side: str, degree: int,
                           dom_pbw: int = 2, val_pbw: int = None):
    """Kernel of the first one-sided component against the linear subspace.

    Both computed on the same window of Hom(X, X) coordinates: the kernel of
    the arity-raising component restricted to a degree slice, and the
    subspace cut out by one-sided linearity defects.  Returns the pair of
    dimensions (they must agree).
    """
    from .exact import rows_nullspace
    if val_pbw is None:
        val_pbw = dom_pbw + 1
    dom = [k for k in triple.x_space.keys if len(k[0]) <= dom_pbw]
    coords = [(x, v) for x in dom for v in triple.x_space.keys
              if triple.x_space.degree[v] ==
              triple.x_space.degree[x] + degree
              and len(v[0]) <= val_pbw]
    index = {c: i for i, c in enumerate(coords)}

    def assemble(pairs, move_argument, move_value, s_arg, s_val):
        """Rows of phi(moved argument)*s_arg + (moved phi-value)*s_val."""
        rows = []
        for (x, b) in pairs:
            contrib = {}
            try:
                moved = move_argument(x, b)
            except WindowOverflow:
                continue
            if any(k not in {c0[0] for c0 in index} for k in moved.coeffs):
                continue            # the moved argument leaves the window
            for k, c in moved.items():
                for v in triple.x_space.keys:
                    if (k, v) in index:
                        entry = contrib.setdefault(v, {})
                        entry[(k, v)] = entry.get((k, v), ZERO) + s_arg * c
            skipped = False
            for v in triple.x_space.keys:
                if (x, v) not in index:
                    continue
                try:
                    img = move_value(v, b)
                except WindowOverflow:
                    skipped = True
                    break
                for t2, c2 in img.items():
                    entry = contrib.setdefault(t2, {})
                    entry[(x, v)] = entry.get((x, v), ZERO) + s_val * c2
            if skipped:
                continue
            for t, cs in contrib.items():
                row = [ZERO] * len(coords)
                nonzero = False
                for cc, val in cs.items():
                    if val:
                        row[index[cc]] = val
                        nonzero = True
                if nonzero:
                    rows.append(row)
        return rows

    if side == "R":
        pairs = [(x, b) for x in dom for b in triple.dual.space.keys if b]
        move_argument = lambda x, b: triple._rmul_key(x, b)
        move_value = lambda v, b: triple._rmul_key(v, b)
        defect = assemble(pairs, move_argument, move_value, 1, -1)
        first = assemble(pairs, move_argument, move_value,
                         sgn(degree - 1), sgn(degree))
    elif side == "L":
        gens = [(i,) for i in range(triple.g.dimension)]
        pairs = [(x, a) for x in dom for a in gens
                 if len(x[0]) < dom_pbw]
        move_argument = lambda x, a: triple._lmul_key(a, x)
        move_value = lambda v, a: triple._lmul_key(a, v)
        defect = assemble(pairs, move_argument, move_value, 1, -1)
        first = assemble(pairs, move_argument, move_value,
                         sgn(degree + 1), sgn(degree))
    else:
        raise StructuralError("side must be R or L")

    linear_dim = len(rows_nullspace(defect, len(coords))) if defect \
        else len(coords)
    kernel_dim = len(rows_nullspace(first, len(coords))) if first \
        else len(coords)
    return kernel_dim, linear_dim
