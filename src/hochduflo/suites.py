"""Verification suites: seeded, deterministic sweeps of the identities.

Each suite returns a SuiteReport with one entry per check: pass/fail status,
a concrete witness on failure (basis element or seed), and timing.  Reports
are pure functions of the configuration, so a failure replays identically
from its seed.
"""

from __future__ import annotations

import random
import time

from .signs import sgn
from .coalgebra import ConvolutionAlgebra
from .exact import (GradedMap, GradedVector, StructuralError, WindowOverflow,
                    derive_seed, key_memo, random_vector)
from .liealg import (CeComplex, LieAlgebra, OddSym, DualOdd, UgWindow,
                     ce_module_ug, ce_differential, invariants_basis, pbw_map)
from .hochschild import (BimoduleOps, TotalSlice, cup, dual_odd_algebra,
                         gerstenhaber, hoch_d, hoch_partial, identity_cochain,
                         interior_hh, multiplication_cochain,
                         differential_cochain, random_cochain, unit_cochain,
                         ug_algebra, words_of)
from .trio import (ALinearEnds, BLinearEnds, EndCochain, TrioCochain,
                   XCochain, d_ax, d_left, d_right, del_x, embed_trio,
                   phi_embed, project_a, project_b, psi_embed,
                   random_x_cochain, rho_a_star, semidirect_algebra,
                   trio_differential)
from .keller import (AbelianActionCone, AugmentationCone, LieTriple,
                     ModuleCochain, frak_h_vanishing_index,
                     kernel_dimension_match, row_exactness_certificate)
from . import duflo as D


LEIBNIZ_EXPONENT = "p+r"      # the empirically pinned derivation sign


class Check:
    def __init__(self, name, ok, witness=None, elapsed=0.0, info=None,
                 skipped=False):
        self.name = name
        self.ok = bool(ok)
        self.witness = witness
        self.elapsed = elapsed
        self.info = info
        self.skipped = skipped

    @property
    def status(self):
        if self.skipped:
            return "skipped"
        return "pass" if self.ok else "fail"

    def to_dict(self, timings=False):
        out = {"name": self.name, "status": self.status}
        if timings:
            out["seconds"] = round(self.elapsed, 3)
        if self.witness is not None:
            out["witness"] = repr(self.witness)
        if self.info is not None:
            out["info"] = self.info
        return out


class SuiteReport:
    def __init__(self, suite, config):
        self.suite = suite
        self.config = dict(config)
        self.checks = []

    def add(self, name, ok, witness=None, elapsed=0.0, info=None,
            skipped=False):
        self.checks.append(Check(name, ok, witness, elapsed, info, skipped))

    @property
    def ok(self):
        return all(c.ok or c.skipped for c in self.checks)

    def to_dict(self, timings=False):
        """Canonical report; wall-clock timings are opt-in so the JSON
        payload is a pure function of the configuration and seed."""
        return {"suite": self.suite, "config": self.config,
                "status": "pass" if self.ok else "fail",
                "checks": [c.to_dict(timings) for c in self.checks]}


def _timed(report, name, fn):
    t0 = time.time()
    try:
        ok, witness, info = fn()
    except WindowOverflow as exc:
        # refused rather than computed wrongly: a window was too shallow
        report.add(name, False, witness=str(exc), elapsed=time.time() - t0,
                   info={"reason": "window refusal"}, skipped=True)
        return
    except StructuralError as exc:
        report.add(name, False, witness=str(exc), elapsed=time.time() - t0)
        return
    report.add(name, ok, witness=witness, elapsed=time.time() - t0, info=info)


# ---------------------------------------------------------------------------
# suite: hochschild-axioms
# ---------------------------------------------------------------------------

def suite_hochschild_axioms(g: LieAlgebra, max_arity=4, trials=200, seed=0):
    """Operator identities of the Hochschild calculus over the dual algebra."""
    report = SuiteReport("hochschild-axioms",
                         {"lie": g.name, "max_arity": max_arity,
                          "trials": trials, "seed": seed})
    B = dual_odd_algebra(DualOdd(g), OddSym(g))
    ops = BimoduleOps.of_algebra(B)
    mu = multiplication_cochain(B)
    one = unit_cochain(B)
    dA = differential_cochain(B)
    sample_cap = 40 if B.space.dim > 4 else None
    rng = random.Random(derive_seed("hochaxioms", g.name, seed))

    def inputs(arity, rnd):
        words = words_of(B.space.keys, arity)
        if sample_cap is not None and len(words) > sample_cap:
            return [tuple(rnd.choice(B.space.keys) for _ in range(arity))
                    for _ in range(sample_cap)]
        return words

    def rand_f(tag, t, pmax=None):
        p = rng.randint(0, pmax if pmax is not None else min(3, max_arity - 1))
        r = rng.randint(-2, 2)
        return random_cochain(B, B, p, r, derive_seed(tag, seed, t), label=tag)

    def check_square():
        for t in range(trials):
            f = rand_f("sq", t)
            rnd = random.Random(derive_seed("sqin", seed, t))
            d1h, d1p = hoch_d(f, ops), hoch_partial(f, ops)
            pieces = [(hoch_d(d1h, ops), f.p + 2),
                      (hoch_partial(d1p, ops), f.p)]
            mixed = (hoch_d(d1p, ops), hoch_partial(d1h, ops), f.p + 1)
            for op, arity in pieces:
                for w in inputs(arity, rnd)[:8]:
                    if op.value(w):
                        return False, ("seed", t, w), None
            for w in inputs(mixed[2], rnd)[:8]:
                if mixed[0].value(w) + mixed[1].value(w):
                    return False, ("seed", t, w), None
        return True, None, None

    def check_bracket_generators():
        for t in range(trials):
            f = rand_f("bg", t)
            rnd = random.Random(derive_seed("bgin", seed, t))
            dh = hoch_d(f, ops)
            br = gerstenhaber(mu, f)
            for w in inputs(f.p + 1, rnd)[:8]:
                if dh.value(w) != br.value(w):
                    return False, ("d_H", t, w), None
            dp = hoch_partial(f, ops)
            br2 = gerstenhaber(dA, f)
            for w in inputs(f.p, rnd)[:8]:
                if dp.value(w) != br2.value(w):
                    return False, ("partial", t, w), None
        return True, None, None

    def check_antisymmetry():
        for t in range(trials):
            f = rand_f("af", t)
            h = rand_f("ag", t)
            rnd = random.Random(derive_seed("antin", seed, t))
            br = gerstenhaber(f, h)
            br2 = gerstenhaber(h, f)
            s = sgn((f.p + f.r - 1) * (h.p + h.r - 1))
            for w in inputs(max(br.p, 0), rnd)[:8]:
                if br.value(w) + br2.value(w).scale(s):
                    return False, ("seed", t, w), None
        return True, None, None

    def check_jacobi():
        for t in range(trials // 2):
            f = rand_f("jf", t, 2)
            h = rand_f("jg", t, 2)
            k = rand_f("jh", t, 2)
            rnd = random.Random(derive_seed("jacin", seed, t))
            lhs = gerstenhaber(f, gerstenhaber(h, k))
            r1 = gerstenhaber(gerstenhaber(f, h), k)
            r2 = gerstenhaber(h, gerstenhaber(f, k))
            s = sgn((f.p + f.r - 1) * (h.p + h.r - 1))
            for w in inputs(max(lhs.p, 0), rnd)[:6]:
                if lhs.value(w) - r1.value(w) - r2.value(w).scale(s):
                    return False, ("seed", t, w), None
        return True, None, None

    def check_cup():
        for t in range(trials // 2):
            f = rand_f("cf", t, 1)
            h = rand_f("cg", t, 1)
            k = rand_f("ch", t, 1)
            rnd = random.Random(derive_seed("cupin", seed, t))
            lhs = cup(cup(f, h), k)
            rhs = cup(f, cup(h, k))
            for w in inputs(lhs.p, rnd)[:6]:
                if lhs.value(w) != rhs.value(w):
                    return False, ("assoc", t, w), None
            lu = cup(one, f)
            ru = cup(f, one)
            for w in inputs(f.p, rnd)[:6]:
                if lu.value(w) != f.value(w) or ru.value(w) != f.value(w):
                    return False, ("unit", t, w), None
        return True, None, None

    def check_leibniz():
        for t in range(trials // 2):
            f = rand_f("lf", t, 1)
            h = rand_f("lg", t, 1)
            rnd = random.Random(derive_seed("lbin", seed, t))
            s = sgn(f.p + f.r)
            fg = cup(f, h)
            for w in inputs(fg.p + 1, rnd)[:6]:
                lhs = hoch_d(fg, ops).value(w)
                rhs = cup(hoch_d(f, ops), h).value(w) \
                    + cup(f, hoch_d(h, ops)).value(w).scale(s)
                if lhs != rhs:
                    return False, ("dH", t, w), None
            for w in inputs(fg.p, rnd)[:6]:
                lhs = hoch_partial(fg, ops).value(w)
                rhs = cup(hoch_partial(f, ops), h).value(w) \
                    + cup(f, hoch_partial(h, ops)).value(w).scale(s)
                if lhs != rhs:
                    return False, ("partial", t, w), None
        return True, None, {"sign": "(-1)^{%s}" % LEIBNIZ_EXPONENT}

    _timed(report, "square-zero", check_square)
    _timed(report, "bracket-generates-differentials", check_bracket_generators)
    _timed(report, "graded-antisymmetry", check_antisymmetry)
    _timed(report, "graded-jacobi", check_jacobi)
    _timed(report, "cup-associativity-and-unit", check_cup)
    _timed(report, "graded-leibniz", check_leibniz)
    return report


# ---------------------------------------------------------------------------
# suite: trio
# ---------------------------------------------------------------------------

def _random_trio(triple: LieTriple, seed, letters_pbw=1, value_pbw=2):
    rng = random.Random(derive_seed("trio", seed))
    a_letters = [k for k in triple.ug.space.keys if len(k) <= letters_pbw + 1]
    x_letters = [k for k in triple.x_space.keys if len(k[0]) <= letters_pbw]
    values = [k for k in triple.x_space.keys if len(k[0]) <= value_pbw]
    ug_values = [k for k in triple.ug.space.keys if len(k) <= value_pbw]
    pa = rng.randint(0, 2)
    f_A = random_cochain(triple.A, triple.A, pa, 0,
                         derive_seed("fa", seed), letters=a_letters,
                         value_keys=ug_values, label="fa")
    p, q = rng.randint(0, 1), rng.randint(0, 1)
    r = rng.randint(-2, 1)
    f_X = random_x_cochain(triple.A, triple.X, triple.B, p, q, r,
                           derive_seed("fx", seed), a_letters=a_letters,
                           x_letters=x_letters,
                           b_letters=triple.dual.space.keys,
                           value_keys=values, label="fx")
    qb = rng.randint(0, 2)
    rb = rng.randint(-2, 2)
    f_B = random_cochain(triple.B, triple.B, qb, rb,
                         derive_seed("fb", seed), label="fb")
    return TrioCochain(fA={(pa, 0): f_A}, fX={(p, q, r): f_X},
                       fB={(qb, rb): f_B})


def suite_trio(g: LieAlgebra, trials=50, seed=0, pbw=4):
    """Embedding into the semidirect algebra and structure preservation."""
    report = SuiteReport("trio", {"lie": g.name, "trials": trials,
                                  "seed": seed, "pbw": pbw})
    triple = LieTriple(g, pbw)
    E = semidirect_algebra(triple.A, triple.X, triple.B)
    e_ops = BimoduleOps.of_algebra(E)
    a_ops = BimoduleOps.of_algebra(triple.A)
    b_ops = BimoduleOps.of_algebra(triple.B)
    rng = random.Random(derive_seed("triosuite", g.name, seed))
    a_letters = [k for k in triple.ug.space.keys if len(k) <= 1]
    x_letters = [k for k in triple.x_space.keys if len(k[0]) <= 1]

    def mixed_word(n, rnd):
        out = []
        for _ in range(n):
            tag = rnd.choice(["A", "X", "B"])
            if tag == "A":
                out.append(("A", rnd.choice(a_letters)))
            elif tag == "X":
                out.append(("X", rnd.choice(x_letters)))
            else:
                out.append(("B", rnd.choice(triple.dual.space.keys)))
        return tuple(out)

    def check_differential_agreement():
        for t in range(trials):
            trio = _random_trio(triple, derive_seed("dt", seed, t))
            d_trio = trio_differential(trio, triple.A, triple.X, triple.B,
                                       a_ops, b_ops)
            rnd = random.Random(derive_seed("dtin", seed, t))
            (pa, ra) = next(iter(trio.fA))
            (p, q, r) = next(iter(trio.fX))
            (qb, rb) = next(iter(trio.fB))
            slots = {(pa, ra), (p + q + 1, r), (qb, rb)}
            outputs = {(n + 1, s) for (n, s) in slots} \
                | {(n, s + 1) for (n, s) in slots}
            for (n, s) in sorted(outputs):
                ambient_h = hoch_d(embed_trio(trio, E, n - 1, s), e_ops) \
                    if n >= 1 else None
                ambient_p = hoch_partial(embed_trio(trio, E, n, s - 1), e_ops)
                DF = embed_trio(d_trio, E, n, s)
                for _ in range(4):
                    w = mixed_word(n, rnd)
                    total = ambient_p.value(w)
                    if ambient_h is not None:
                        total = total + ambient_h.value(w)
                    if total != DF.value(w):
                        return False, (t, (n, s), w), None
        return True, None, None

    def check_vanishing_products():
        for t in range(trials // 2):
            trio = _random_trio(triple, derive_seed("vp", seed, t))
            rnd = random.Random(derive_seed("vpin", seed, t))
            (pa, ra) = next(iter(trio.fA))
            (p, q, r) = next(iter(trio.fX))
            (qb, rb) = next(iter(trio.fB))
            FA = embed_trio(TrioCochain(fA=trio.fA), E, pa, ra)
            FX = embed_trio(TrioCochain(fX=trio.fX), E, p + q + 1, r)
            FB = embed_trio(TrioCochain(fB=trio.fB), E, qb, rb)
            pairs = [(FA, FB), (FX, FA), (FX, FX), (FB, FA), (FB, FX)]
            for i, (u, v) in enumerate(pairs):
                prod = cup(u, v)
                for _ in range(4):
                    w = mixed_word(prod.p, rnd)
                    if prod.value(w):
                        # the listed products vanish identically
                        return False, ("nonzero", i, t, w), None
        return True, None, None

    def check_projections_chain_maps():
        for t in range(trials // 2):
            trio = _random_trio(triple, derive_seed("pc", seed, t))
            d_trio = trio_differential(trio, triple.A, triple.X, triple.B,
                                       a_ops, b_ops)
            rnd = random.Random(derive_seed("pcin", seed, t))
            (pa, ra) = next(iter(trio.fA))
            (qb, rb) = next(iter(trio.fB))
            # pi_A o d == dH^A o pi_A evaluated on A-words
            dA_h = hoch_d(project_a(embed_trio(trio, E, pa, ra), triple.A, E),
                          a_ops)
            piDA = project_a(embed_trio(d_trio, E, pa + 1, ra), triple.A, E)
            # pi_B o d == (dH^B + del_B) o pi_B evaluated on B-words
            FB = embed_trio(trio, E, qb, rb)
            piB = project_b(FB, triple.B, E)
            dB_h = hoch_d(piB, b_ops)
            DB = embed_trio(d_trio, E, qb + 1, rb)
            piDB = project_b(DB, triple.B, E)
            for _ in range(5):
                w = tuple(rnd.choice(triple.dual.space.keys)
                          for _ in range(qb + 1))
                if dB_h.value(w) != piDB.value(w):
                    return False, ("piB", t, w), None
            for _ in range(5):
                w = tuple(rnd.choice(a_letters) for _ in range(pa + 1))
                if dA_h.value(w) != piDA.value(w):
                    return False, ("piA", t, w), None
        return True, None, None

    def check_inclusion_counterexample():
        # iota_A of the identity cochain fails the chain map law through
        # the mixed component: d(iota_A id) has a nonzero X-part
        ident = identity_cochain(triple.A)
        trio = TrioCochain(fA={(1, 0): ident})
        d_trio = trio_differential(trio, triple.A, triple.X, triple.B,
                                   a_ops, b_ops)
        leg = d_trio.fX.get((1, 0, 0))
        if leg is None:
            return False, "missing mixed leg", None
        witness = leg.value(((0,),), ((), ()), ())
        expect = GradedVector.basis(triple.x_space, ((0,), ()))
        return witness == expect and bool(witness), ("witness", witness), None

    _timed(report, "embedding-intertwines-differential",
           check_differential_agreement)
    _timed(report, "vanishing-products", check_vanishing_products)
    _timed(report, "projections-are-chain-maps", check_projections_chain_maps)
    _timed(report, "inclusion-counterexample", check_inclusion_counterexample)
    return report


# ---------------------------------------------------------------------------
# suite: keller-homotopies
# ---------------------------------------------------------------------------

def suite_keller_homotopies(g: LieAlgebra, seed=0, pbw=3, max_pq=3,
                            n_inputs=60):
    report = SuiteReport("keller-homotopies",
                         {"lie": g.name, "seed": seed, "pbw": pbw,
                          "max_pq": max_pq})
    triple = LieTriple(g, max(pbw + 2, 5))

    def check_side(side):
        def run():
            for p in range(0, max_pq):
                for q in range(0, max_pq):
                    for r in (0, -1, 1):
                        bad = row_exactness_certificate(
                            triple, side, p, q, r,
                            derive_seed("rx", side, seed, p, q, r),
                            n_inputs=n_inputs)
                        if bad:
                            return False, (side, p, q, r, bad[0][:3]), None
            return True, None, None
        return run

    def check_topform():
        bad = triple.top_form_residuals()
        return not bad, bad[:1] or None, None

    def check_kernels():
        for side in ("R", "L"):
            kd, ld = kernel_dimension_match(
                triple, side, 0,
                dom_pbw=1 if g.dimension >= 3 else 2,
                val_pbw=1 if g.dimension >= 3 else 3)
            if kd != ld:
                return False, (side, kd, ld), None
        return True, None, None

    _timed(report, "right-homotopy-identity", check_side("R"))
    _timed(report, "left-homotopy-identity", check_side("L"))
    _timed(report, "top-form-identities", check_topform)
    _timed(report, "one-sided-kernel-dimensions", check_kernels)
    return report


def suite_topform_sweep(max_dim=4):
    report = SuiteReport("top-form-sweep", {"max_dim": max_dim})
    for d in range(1, max_dim + 1):
        g = LieAlgebra.abelian(d, name="abelian%d" % d)

        def run(g=g):
            triple = LieTriple(g, 1)
            bad = triple.top_form_residuals()
            return not bad, bad[:1] or None, None

        _timed(report, "dimension-%d" % d, run)
    return report


# ---------------------------------------------------------------------------
# suite: vanishing (augmentation cone + tails)
# ---------------------------------------------------------------------------

class TailValues:
    """The seeded tail cochain of the vanishing suite, valued in the module
    of an ``AbelianActionCone``: one (v, g0, g1) triple per word.

    Each word's triple is drawn once per instance and then handed out
    shared and read-only, like every other ``key_memo`` result.
    """

    def __init__(self, cone, seed, p, r):
        self.cone, self.seed, self.p, self.r = cone, seed, p, r

    @key_memo
    def value(self, word):
        cone, r = self.cone, self.r
        s = derive_seed("tail", self.seed, word, self.p, r)
        vv = random_vector(cone.val.space, 0, s)
        v = GradedVector(cone.val.space,
                         {k: c for k, c in vv.coeffs.items()
                          if len(k) <= 2}) if r == 0 else \
            GradedVector.zero(cone.val.space)
        g0 = GradedMap(cone.dom.space, cone.val.space, 0)
        g1 = GradedMap(cone.dom.space, cone.val.space, 0)
        for u in cone.dom.space.keys:
            vec = random_vector(cone.val.space, 0, derive_seed("tg", s, u, r))
            trimmed = GradedVector(
                cone.val.space,
                {k: c for k, c in vec.coeffs.items() if len(k) <= 2})
            if r == 0:
                g0.set_column(u, trimmed, check=False)
            g1.set_column(u, trimmed, check=False)
        return (v, g0, g1)


def suite_vanishing(g: LieAlgebra, depth=4, seed=0):
    report = SuiteReport("vanishing", {"lie": g.name, "depth": depth,
                                       "seed": seed})
    triple = LieTriple(g, depth)
    cone = AugmentationCone(triple, depth)

    def check_base():
        h = cone.build_homotopy()
        col = h.column(("k",))
        want = GradedVector.basis(cone.space, ("x", ((), ())))
        return col == want, col, None

    def check_identity():
        bad = cone.homotopy_residuals()
        return not bad, bad[:1] or None, None

    def check_containment():
        bad = cone.containment_violations()
        return not bad, bad[:1] or None, None

    def check_tails():
        cone1 = AbelianActionCone(dom_cap=5, val_cap=16)
        M = cone1.module()
        A = ug_algebra(cone1.val)
        a_letters = [k for k in cone1.val.space.keys if len(k) <= 1]

        def words_fn(n):
            return words_of(a_letters, n)[:30]

        for (p, r) in ((0, 0), (1, 0), (0, 1)):
            f = ModuleCochain(A, M, p, TailValues(cone1, seed, p, r).value,
                              label="tail")
            bound = p + r + cone1.degree_bound()
            last, _seq = frak_h_vanishing_index(f, r, bound + 2, words_fn)
            if last > bound:
                return False, ((p, r), last, bound), None
        return True, None, None

    def check_depth_refusals():
        refused = []
        for probe in range(depth + 1, depth + 3):
            try:
                AugmentationCone(triple, probe)
            except WindowOverflow:
                refused.append(probe)
        return len(refused) == 2, None, {"refused_depths": refused}

    _timed(report, "base-value", check_base)
    _timed(report, "contracting-identity-on-filtration", check_identity)
    _timed(report, "filtration-and-degree-drop", check_containment)
    _timed(report, "tail-vanishing-bound", check_tails)
    _timed(report, "deeper-windows-refuse-loudly", check_depth_refusals)
    return report


# ---------------------------------------------------------------------------
# suite: phi-psi
# ---------------------------------------------------------------------------

def suite_phi_psi(g: LieAlgebra, trials=50, seed=0, pbw=6):
    report = SuiteReport("phi-psi", {"lie": g.name, "trials": trials,
                                     "seed": seed, "pbw": pbw})
    triple = LieTriple(g, pbw)
    a_ends = BLinearEnds(triple.A, triple.X)
    b_ends = ALinearEnds(triple.B, triple.X)
    a_pool = [k for k in triple.ug.space.keys if len(k) <= 1]
    x_pool = [k for k in triple.x_space.keys if len(k[0]) <= 2]

    def words(n, pool, rnd):
        return tuple(rnd.choice(pool) for _ in range(n))

    def check_linearity():
        phi = triple.random_blinear_end(0, derive_seed("bl", seed), 2)
        psi = triple.random_alinear_end(0, derive_seed("al", seed), 2)
        bad = triple.blinear_defects(phi) + triple.alinear_defects(psi)
        return not bad, bad[:1] or None, None

    def check_phi_rho():
        rng = random.Random(derive_seed("phirho", seed))
        for t in range(trials):
            p = rng.randint(0, 2)
            fA = random_cochain(
                triple.A, triple.A, p, 0, derive_seed("fr", seed, t),
                letters=[k for k in triple.ug.space.keys if len(k) <= 2],
                value_keys=[k for k in triple.ug.space.keys if len(k) <= 2],
                label="fr")
            lhs = phi_embed(rho_a_star(fA, triple.X), triple.B)
            rhs = d_ax(fA, triple.X, triple.B)
            for _ in range(5):
                aw = words(p, [k for k in triple.ug.space.keys
                               if len(k) <= 2], rng)
                xk = rng.choice(x_pool)
                if lhs.value(aw, xk, ()) != rhs.value(aw, xk, ()):
                    return False, (t, aw, xk), None
        return True, None, None

    def check_phi_chain():
        rng = random.Random(derive_seed("phic", seed))
        for t in range(max(trials // 10, 3)):
            p = rng.randint(0, 1)
            cols = {}
            for w in words_of(a_pool, p):
                cols[w] = triple.random_blinear_end(
                    0, derive_seed("pc", seed, t, w), 2)
            f = EndCochain(triple.A, triple.X, p, 0, columns=cols, label="f")
            phi_f = phi_embed(f, triple.B)
            dh = hoch_d(f, a_ends)
            dp = hoch_partial(f, a_ends)
            for _ in range(6):
                xk = rng.choice(x_pool)
                aw = words(p + 1, a_pool, rng)
                if d_left(phi_f).value(aw, xk, ()) \
                        + phi_embed(dh, triple.B).value(aw, xk, ()):
                    return False, ("L", t, aw, xk), None
                aw2 = words(p, a_pool, rng)
                if del_x(phi_f).value(aw2, xk, ()) \
                        + phi_embed(dp, triple.B).value(aw2, xk, ()):
                    return False, ("del", t, aw2, xk), None
                if d_right(phi_f).value(
                        aw2, xk, (rng.choice(triple.dual.space.keys),)):
                    return False, ("R", t, aw2, xk), None
        return True, None, None

    def check_psi_chain():
        rng = random.Random(derive_seed("psic", seed))
        for t in range(max(trials // 10, 3)):
            q = rng.randint(0, 1)
            cols = {}
            for w in words_of(triple.dual.space.keys, q):
                wdeg = sum(len(b) for b in w)
                cols[w] = triple.random_alinear_end(
                    wdeg, derive_seed("qc", seed, t, w), 2)
            f = EndCochain(triple.B, triple.X, q, 0, columns=cols, label="g")
            psi_f = psi_embed(f, triple.A)
            dh = hoch_d(f, b_ends)
            dp = hoch_partial(f, b_ends)
            for _ in range(6):
                xk = rng.choice(x_pool)
                bw = words(q + 1, list(triple.dual.space.keys), rng)
                if d_right(psi_f).value((), xk, bw) \
                        + psi_embed(dh, triple.A).value((), xk, bw):
                    return False, ("R", t, bw, xk), None
                bw2 = words(q, list(triple.dual.space.keys), rng)
                if del_x(psi_f).value((), xk, bw2) \
                        + psi_embed(dp, triple.A).value((), xk, bw2):
                    return False, ("del", t, bw2, xk), None
                if d_left(psi_f).value((rng.choice(a_pool),), xk, bw2):
                    return False, ("L", t, bw2, xk), None
        return True, None, None

    def check_nonlinear_detected():
        rng = random.Random(derive_seed("inj", seed))
        phi = GradedMap(triple.x_space, triple.x_space, 0)
        src = ((), (0,))
        phi.set_column(src, GradedVector.basis(triple.x_space, ((0,), (0,))),
                       check=False)
        bad = triple.alinear_defects(phi)
        return bool(bad), None if bad else "defect not detected", None

    def check_cone_kernel():
        # ker(pi_B) carries the mapping-cone differential built from the
        # curried embedding composed with the action pushforward
        rng = random.Random(derive_seed("cone", seed))
        for t in range(max(trials // 10, 3)):
            p = rng.randint(0, 1)
            fA = random_cochain(
                triple.A, triple.A, p, 0, derive_seed("ck", seed, t),
                letters=[k for k in triple.ug.space.keys if len(k) <= 2],
                value_keys=[k for k in triple.ug.space.keys if len(k) <= 2],
                label="ck")
            fX = random_x_cochain(
                triple.A, triple.X, triple.B, p, 0, -1,
                derive_seed("cx", seed, t),
                a_letters=[k for k in triple.ug.space.keys if len(k) <= 2],
                x_letters=x_pool, b_letters=triple.dual.space.keys,
                value_keys=[k for k in triple.x_space.keys
                            if len(k[0]) <= 2], label="cx")
            # cone route: (+(dH+del) fA, Phi rhoA* fA + (dX-part) fX)
            cone_a_h = hoch_d(fA, BimoduleOps.of_algebra(triple.A))
            phi_leg = phi_embed(rho_a_star(fA, triple.X), triple.B)
            trio = TrioCochain(fA={(p, 0): fA}, fX={(p, 0, -1): fX})
            d_trio = trio_differential(trio, triple.A, triple.X, triple.B,
                                       BimoduleOps.of_algebra(triple.A),
                                       BimoduleOps.of_algebra(triple.B))
            got = d_trio.fX.get((p, 0, 0))
            for _ in range(5):
                aw = words(p, a_pool, rng)
                xk = rng.choice(x_pool)
                want = phi_leg.value(aw, xk, ()) \
                    + del_x(fX).value(aw, xk, ())
                if got.value(aw, xk, ()) != want:
                    return False, (t, aw, xk), None
        return True, None, None

    _timed(report, "structured-values-are-linear", check_linearity)
    _timed(report, "phi-after-action-is-mixed-leg", check_phi_rho)
    _timed(report, "phi-chain-map", check_phi_chain)
    _timed(report, "psi-chain-map", check_psi_chain)
    _timed(report, "nonlinear-value-detected", check_nonlinear_detected)
    _timed(report, "kernel-of-projection-is-cone", check_cone_kernel)
    return report


# ---------------------------------------------------------------------------
# suite: sum-vs-product example
# ---------------------------------------------------------------------------

def suite_sum_example(max_window=6):
    report = SuiteReport("sum-example", {"max_window": max_window})
    g1 = LieAlgebra.abelian(1)
    A = dual_odd_algebra(DualOdd(g1), OddSym(g1))

    def check_growth():
        dims = [interior_hh(A, 0, P)[0] for P in range(2, max_window + 1)]
        expect = list(range(2, max_window + 1))
        return dims == expect, dims, {
            "note": "finite windows agree for both totalizations; the "
                    "divergence is a colimit-versus-limit phenomenon"}

    def check_ug_side():
        # degree-zero classes over the enveloping algebra are its center;
        # for the one-dimensional algebra the center count is the window size
        dims = []
        for N in (3, 4, 5):
            ug = UgWindow(g1, N)
            centre = invariants_basis(g1, ce_module_ug(ug), 0)
            dims.append(len(centre))
        return dims == [4, 5, 6], dims, {
            "note": "the enveloping side grows one dimension per unit of "
                    "window, the same pattern as the dual-side interior count"}

    _timed(report, "interior-growth-one-per-arity", check_growth)
    _timed(report, "enveloping-side-count", check_ug_side)
    return report


# ---------------------------------------------------------------------------
# suite: duflo maps and the homotopy identity
# ---------------------------------------------------------------------------

def suite_duflo_maps(g: LieAlgebra, trials=50, seed=0, pbw=7, sym_cap=4):
    report = SuiteReport("duflo-maps", {"lie": g.name, "trials": trials,
                                        "seed": seed, "pbw": pbw})
    ctx = D.DufloContext(g, pbw_cap=pbw, sym_cap=sym_cap)

    def check_phi_t():
        phi = ctx.tp.phi_t()
        seen = set()
        for key, col in phi.columns.items():
            items = list(col.coeffs.items())
            if len(items) != 1 or items[0][1] not in (1, -1):
                return False, key, None
            if items[0][0] in seen:
                return False, key, None
            seen.add(items[0][0])
        if len(seen) != ctx.tp.ce().space.dim:
            return False, "not surjective", None
        dt = ctx.tp.d_t()
        if not dt.compose(dt).is_zero():
            return False, "d_T squares nonzero", None
        return True, None, None

    def check_phi_t_mult():
        rng = random.Random(derive_seed("ptm", seed))
        for t in range(trials):
            d1, d2 = rng.randint(0, 2), rng.randint(0, 2)
            t1 = random_vector(ctx.tp.space, d1, derive_seed("t1", seed, t))
            t2 = random_vector(ctx.tp.space, d2, derive_seed("t2", seed, t))
            t1 = GradedVector(ctx.tp.space, {
                k: c for k, c in t1.coeffs.items() if len(k[1]) <= 2})
            t2 = GradedVector(ctx.tp.space, {
                k: c for k, c in t2.coeffs.items() if len(k[1]) <= 2})
            lhs = ctx.tp.phi_t()(ctx.tp.mul(t1, t2))
            f1 = _hom_map(ctx, ctx.tp.phi_t()(t1), d1)
            f2 = _hom_map(ctx, ctx.tp.phi_t()(t2), d2)
            conv = ConvolutionAlgebra(ctx.odd, ctx.sym).convolve(f1, f2)
            rvec = GradedVector.zero(ctx.tp.ce().space)
            for y, col in conv.columns.items():
                for m, c in col.coeffs.items():
                    rvec.add_term((y, m), c)
            if lhs != rvec:
                return False, t, None
        return True, None, None

    def check_hkr_chain():
        rng = random.Random(derive_seed("hkrc", seed))
        b_ops = ctx.b_ops
        for t in range(max(trials // 8, 3)):
            deg = rng.randint(0, 2)
            tv = random_vector(ctx.tp.space, deg, derive_seed("hk", seed, t))
            tv = GradedVector(ctx.tp.space, {
                k: c for k, c in tv.coeffs.items() if len(k[1]) <= 3})
            parts = D.hkr(ctx.tp, ctx.B, tv)
            parts_d = D.hkr(ctx.tp, ctx.B, ctx.tp.d_t()(tv))
            arities = sorted({q for (q, r) in parts} | {0})
            for arity in range(0, max(arities) + 2):
                for _ in range(4):
                    w = tuple(rng.choice(ctx.B.space.keys)
                              for _ in range(arity))
                    lhs = GradedVector.zero(ctx.B.space)
                    for (q, r), c in parts.items():
                        if q + 1 == arity:
                            lhs.add_inplace(hoch_d(c, b_ops).value(w))
                        if q == arity:
                            lhs.add_inplace(hoch_partial(c, b_ops).value(w))
                    rhs = GradedVector.zero(ctx.B.space)
                    for (q, r), c in parts_d.items():
                        if q == arity:
                            rhs.add_inplace(c.value(w))
                    if lhs != rhs:
                        return False, (t, arity, w), None
        return True, None, None

    def check_phi2():
        rng = random.Random(derive_seed("p2", seed))
        a_letters = [k for k in ctx.ug.space.keys if len(k) <= 2]
        vals = [k for k in ctx.ug.space.keys if len(k) <= 2]
        for t in range(max(trials // 8, 3)):
            p = rng.randint(0, 2)
            f = random_cochain(ctx.A, ctx.A, p, 0, derive_seed("pf", seed, t),
                               letters=a_letters, value_keys=vals, label="pf")
            lhs = D.phi2_tilde(hoch_d(f, ctx.a_ops), ctx.odd, ctx.ug)
            rhs = ce_differential(ctx.odd, ctx.ce_ug,
                                  D.phi2_tilde(f, ctx.odd, ctx.ug))
            if lhs != rhs:
                return False, ("chain", t), None
            g2 = random_cochain(ctx.A, ctx.A, rng.randint(0, 1), 0,
                                derive_seed("pg", seed, t),
                                letters=a_letters,
                                value_keys=[k for k in ctx.ug.space.keys
                                            if len(k) <= 1], label="pg")
            lhs2 = D.phi2_tilde(cup(f, g2), ctx.odd, ctx.ug)
            rhs2 = ConvolutionAlgebra(ctx.odd, ctx.ug).convolve(
                D.phi2_tilde(f, ctx.odd, ctx.ug),
                D.phi2_tilde(g2, ctx.odd, ctx.ug))
            if lhs2 != rhs2:
                return False, ("mult", t), None
        return True, None, None

    def check_d_squared():
        rng = random.Random(derive_seed("dsq", seed))
        for t in range(max(trials // 10, 3)):
            n = rng.randint(0, 2)
            e = D.random_pullback_element(ctx, n, derive_seed("de", seed, t))
            d1 = ctx.pullback_differential(e)
            d2 = ctx.pullback_differential(d1)
            if d2.t and not d2.t.is_zero():
                return False, ("T", t), None
            a_pool = [k for k in ctx.ug.space.keys if len(k) <= 1]
            x_pool = [k for k in ctx.X.space.keys if len(k[0]) <= 1]
            b_pool = [k for k in ctx.dual.space.keys if len(k) <= 2]
            for (p, r), f in d2.fA.items():
                for _ in range(4):
                    w = tuple(rng.choice(a_pool) for _ in range(p))
                    if f.value(w):
                        return False, ("A", t, w), None
            for (p, q, r), f in d2.fX.items():
                for _ in range(4):
                    aw = tuple(rng.choice(a_pool) for _ in range(p))
                    xk = rng.choice(x_pool)
                    bw = tuple(rng.choice(b_pool) for _ in range(q))
                    if f.value(aw, xk, bw):
                        return False, ("X", t, aw, xk, bw), None
        return True, None, None

    _timed(report, "phi-T-bijective-chain", check_phi_t)
    _timed(report, "phi-T-multiplicative", check_phi_t_mult)
    _timed(report, "hkr-chain-map", check_hkr_chain)
    _timed(report, "phi-2-chain-and-multiplicative", check_phi2)
    _timed(report, "pullback-differential-squares-to-zero", check_d_squared)
    return report


def _hom_map(ctx, homvec, shift):
    out = GradedMap(ctx.odd.space, ctx.sym.space, shift)
    cols = {}
    for (y, m), c in homvec.coeffs.items():
        cols.setdefault(y, GradedVector.zero(ctx.sym.space)).add_term(m, c)
    for y, col in cols.items():
        out.set_column(y, col, check=False)
    return out


def suite_homotopy_identity(g: LieAlgebra, trials=100, seed=0, pbw=8,
                            degrees=(0, 1, 2)):
    report = SuiteReport("homotopy-identity",
                         {"lie": g.name, "trials": trials, "seed": seed,
                          "pbw": pbw})
    ctx = D.DufloContext(g, pbw_cap=pbw, sym_cap=4)

    def check_identity():
        count = 0
        t = 0
        while count < trials:
            n = degrees[t % len(degrees)]
            e = D.random_pullback_element(ctx, n, derive_seed("hi", seed, t))
            res = ctx.homotopy_identity_residual(e, n)
            if not res.is_zero():
                return False, ("seed", t, "degree", n), None
            count += 1
            t += 1
        return True, None, {"trials": trials}

    def check_sign_normalization():
        unit = GradedVector.basis(ctx.X.space, ((), ()))
        f = XCochain(ctx.A, ctx.X, ctx.B, 0, 0, 0,
                     columns={((), ((), ()), ()): unit})
        ok = ctx.homotopy_component(f).column(()) == ctx.ug.unit()
        return ok, None, None

    def check_h_extends_by_zero():
        e = D.PullbackElement(
            fA={(1, 0): random_cochain(
                ctx.A, ctx.A, 1, 0, derive_seed("hz", seed),
                letters=[k for k in ctx.ug.space.keys if len(k) <= 1],
                value_keys=[k for k in ctx.ug.space.keys if len(k) <= 1])},
            t=random_vector(ctx.tp.space, 1, derive_seed("ht", seed)))
        e.t = GradedVector(ctx.tp.space, {
            k: c for k, c in e.t.coeffs.items() if len(k[1]) <= 2})
        h = ctx.homotopy(e)
        return h.is_zero(), None, None

    _timed(report, "psi1-minus-psi2-equals-homotopy", check_identity)
    _timed(report, "sign-normalization-at-origin", check_sign_normalization)
    _timed(report, "homotopy-extends-by-zero", check_h_extends_by_zero)
    return report


# ---------------------------------------------------------------------------
# suite: duflo endgame
# ---------------------------------------------------------------------------

def suite_duflo_endgame(g: LieAlgebra = None, pbw=6, sym_cap=4,
                        series_order=4, seed=0, lift_depth=5):
    g = g or LieAlgebra.sl2()
    report = SuiteReport("duflo-endgame",
                         {"lie": g.name, "pbw": pbw, "series_order":
                          series_order, "seed": seed})
    ctx = D.DufloContext(g, pbw_cap=max(pbw, 6), sym_cap=sym_cap)
    J, Js = D.duflo_series(g, series_order)
    semisimple = g.is_semisimple()
    b_slice = TotalSlice(ctx.B, ctx.b_ops, 0, g.dimension)

    def check_series():
        if not (Js * Js == J):
            return False, "square root", None
        bad = D.invariance_defects(g, J) + D.invariance_defects(g, Js)
        if bad:
            return False, bad[0], None
        det = D.todd_determinant(g, series_order)
        if det != J:
            return False, "determinant route differs", None
        return True, None, None

    def check_multiplicativity():
        P = D.quadratic_invariant(g, ctx.sym)
        if P is None:
            return True, None, {"note": "no quadratic invariant; vacuous"}
        q = D.series_contraction(ctx.sym, Js, P)
        u = pbw_map(ctx.sym, ctx.ug, q)
        p2 = ctx.sym.mul(P, P)
        q2 = D.series_contraction(ctx.sym, Js, p2)
        lhs = ctx.ug.mul(u, u)
        rhs = pbw_map(ctx.sym, ctx.ug, q2)
        if lhs != rhs:
            return False, (lhs - rhs), None
        central = all(
            not (ctx.ug.mul(GradedVector.basis(ctx.ug.space, (i,)), u)
                 - ctx.ug.mul(u, GradedVector.basis(ctx.ug.space, (i,))))
            for i in range(g.dimension))
        return central, None if central else "not central", None

    def check_negative_control():
        P = D.quadratic_invariant(g, ctx.sym)
        if P is None:
            return True, None, {"note": "vacuous"}
        u0 = pbw_map(ctx.sym, ctx.ug, P)
        p2 = ctx.sym.mul(P, P)
        lhs = ctx.ug.mul(u0, u0)
        rhs = pbw_map(ctx.sym, ctx.ug, p2)
        if semisimple:
            return lhs != rhs, None, {"witness": repr(lhs - rhs)}
        return True, None, {"note": "control meaningful for semisimple case"}

    def check_route_classes():
        P = D.quadratic_invariant(g, ctx.sym)
        if P is None:
            return True, None, {"note": "vacuous"}
        tprime = D.series_contraction(ctx.sym, Js, P)
        u0 = pbw_map(ctx.sym, ctx.ug, tprime)
        comps, fB = D.lift_central_through_projection(ctx, u0,
                                                      depth=lift_depth)
        x_keys = [k for k in ctx.X.space.keys
                  if len(k[0]) + len(k[1]) <= 2]
        bad = D.lift_residuals(ctx, u0, comps, fB, x_keys)
        if bad:
            return False, bad[0][:3], None
        got = b_slice.same_class(
            fB, D.hkr(ctx.tp, ctx.B, ctx.tp.function(tprime)))
        if got is None:
            return False, "not window cocycles", None
        return got, None, {
            "note": "projection class of the corrected symmetrization "
                    "matches the corrected polyvector image"}

    def check_route_negative():
        P = D.quadratic_invariant(g, ctx.sym)
        if P is None or not semisimple:
            why = "no quadratic invariant" if P is None else "not semisimple"
            return True, None, {"note": "control skipped: %s" % why}
        hkr_parts = D.hkr(ctx.tp, ctx.B, ctx.tp.function(
            D.series_contraction(ctx.sym, Js, P)))
        u0p = pbw_map(ctx.sym, ctx.ug, P)
        comps, fBp = D.lift_central_through_projection(ctx, u0p,
                                                       depth=lift_depth)
        return b_slice.same_class(fBp, hkr_parts) is False, None, None

    def check_h1_dimensions():
        # degree-one cohomology of both routes' targets on the window:
        # CE with Ug values, dims in degrees 0 and 1 on a PBW slice
        h1, _ = CeComplex(ctx.odd, ctx.ce_ug,
                          [u for u in ctx.ug.space.keys if len(u) <= 2],
                          "Hom(S(%s[1]),Ug)<=2" % g.name).cohomology(1)
        if semisimple:
            # the filtration slice is an honest finite module, so the
            # degree-one cohomology vanishes there; both routes then agree
            # on the empty set of representatives
            return h1 == 0, h1, {"note": "window H^1 with enveloping values"}
        return True, None, {"window-h1": h1,
                            "note": "vanishing is only asserted for the "
                                    "semisimple instance"}

    _timed(report, "series-sqrt-invariance-determinant", check_series)
    _timed(report, "corrected-symmetrization-multiplicative",
           check_multiplicativity)
    _timed(report, "plain-symmetrization-fails", check_negative_control)
    _timed(report, "route-classes-agree", check_route_classes)
    _timed(report, "route-negative-control", check_route_negative)
    _timed(report, "window-h1-vanishes", check_h1_dimensions)
    return report


SUITES = {
    "hochschild-axioms": lambda cfg: suite_hochschild_axioms(
        cfg["lie"], cfg["max_arity"], cfg["trials"], cfg["seed"]),
    "trio": lambda cfg: suite_trio(cfg["lie"], min(cfg["trials"], 50),
                                   cfg["seed"], cfg["pbw"] + 1),
    "keller-homotopies": lambda cfg: suite_keller_homotopies(
        cfg["lie"], cfg["seed"], cfg["pbw"]),
    "top-form-sweep": lambda cfg: suite_topform_sweep(),
    "vanishing": lambda cfg: suite_vanishing(cfg["lie"],
                                             min(cfg["pbw"] + 1, 4),
                                             cfg["seed"]),
    "phi-psi": lambda cfg: suite_phi_psi(cfg["lie"], min(cfg["trials"], 50),
                                         cfg["seed"]),
    "sum-example": lambda cfg: suite_sum_example(),
    "duflo-maps": lambda cfg: suite_duflo_maps(cfg["lie"],
                                               min(cfg["trials"], 50),
                                               cfg["seed"]),
    "homotopy-identity": lambda cfg: suite_homotopy_identity(
        cfg["lie"], min(cfg["trials"], 100), cfg["seed"]),
    "duflo-endgame": lambda cfg: suite_duflo_endgame(
        cfg["lie"], cfg["pbw"], 4, cfg["series_order"], cfg["seed"]),
}


def run_suite(name, lie=None, max_arity=3, pbw=3, series_order=4, seed=0,
              trials=100):
    """Run one named suite (or "all") and return the list of reports."""
    from .hochschild import TruncationWindow
    lie = lie or LieAlgebra.aff1()
    window = TruncationWindow(max_arity=max_arity, pbw=pbw)
    cfg = {"lie": lie, "max_arity": max_arity, "pbw": pbw,
           "series_order": series_order, "seed": seed, "trials": trials}
    if name == "all":
        reports = [SUITES[n](cfg) for n in SUITES]
    elif name not in SUITES:
        raise StructuralError("unknown suite %r; known: %s"
                              % (name, ", ".join(sorted(SUITES) + ["all"])))
    else:
        reports = [SUITES[name](cfg)]
    for r in reports:
        r.config.setdefault("window", window.to_dict())
        r.config["lie"] = lie.name
        r.config["seed"] = seed
    return reports
