"""The symmetrization correction at work on sl2, end to end.

The plain symmetrization of the quadratic Casimir fails to be multiplicative
in the enveloping algebra; correcting by the square root of the invariant
determinant series repairs it exactly.  The same correction makes the two
comparison routes (through polyvector fields, and through the bimodule
correspondence) agree class by class, and dropping it breaks the class
comparison too.  Every number below is an exact rational.
"""

from hochduflo.liealg import LieAlgebra, pbw_map
from hochduflo.duflo import (DufloContext, duflo_series,
                             lift_central_through_projection, lift_residuals,
                             quadratic_invariant, series_contraction,
                             todd_determinant)

g = LieAlgebra.sl2()
ctx = DufloContext(g, pbw_cap=6, sym_cap=4)

J, Js = duflo_series(g, 4)
print("invariant series:", J)
print("square root     :", Js)
print("determinant route agrees:", todd_determinant(g, 4) == J)

P = quadratic_invariant(g, ctx.sym)
print("quadratic invariant:", P)

corrected = series_contraction(ctx.sym, Js, P)
u = pbw_map(ctx.sym, ctx.ug, corrected)
print("corrected symmetrization:", u)

square_sym = series_contraction(ctx.sym, Js, ctx.sym.mul(P, P))
print("multiplicative after correction:",
      ctx.ug.mul(u, u) == pbw_map(ctx.sym, ctx.ug, square_sym))

plain = pbw_map(ctx.sym, ctx.ug, P)
defect = ctx.ug.mul(plain, plain) - pbw_map(ctx.sym, ctx.ug,
                                            ctx.sym.mul(P, P))
print("plain symmetrization defect:", defect)

# the class-level comparison: lift the corrected element through the
# bimodule projection; the computed dual-side projection matches the image
# of the corrected polyvector, modulo window coboundaries (checked in the
# verification suite; here we print the lift residuals)
comps, fB = lift_central_through_projection(ctx, u, depth=5)
x_keys = [k for k in ctx.X.space.keys if len(k[0]) + len(k[1]) <= 2]
print("bimodule lift residuals:", len(lift_residuals(ctx, u, comps, fB,
                                                     x_keys)))
print("projected dual-side components:", sorted(fB))
