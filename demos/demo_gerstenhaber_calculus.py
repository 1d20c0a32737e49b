"""A walking tour of the windowed Hochschild/Gerstenhaber calculus.

We work over the dual odd algebra of the two-dimensional nonabelian Lie
algebra: an eight-dimensional graded algebra with a genuine differential, so
every sign in the calculus is exercised.  Everything below is exact rational
arithmetic; every printed identity holds on the nose.
"""

from hochduflo.liealg import LieAlgebra, OddSym, DualOdd
from hochduflo.hochschild import (BimoduleOps, cup, dual_odd_algebra,
                                  gerstenhaber, hoch_d, identity_cochain,
                                  interior_hh, multiplication_cochain,
                                  random_cochain, unit_cochain, words_of)

g = LieAlgebra.aff1()
B = dual_odd_algebra(DualOdd(g), OddSym(g))
ops = BimoduleOps.of_algebra(B)

print("The dual odd algebra of %s has dimension %d, degrees %s."
      % (g.name, B.space.dim, B.space.degrees()))

# The multiplication, seen as an arity-two cochain, generates the Hochschild
# differential through the bracket; the algebra differential generates the
# dg part the same way.
mu = multiplication_cochain(B)
dA = differential = None
f = random_cochain(B, B, 2, -1, seed=42, label="f")
dh = hoch_d(f, ops)
br = gerstenhaber(mu, f)
agree = all(dh.value(w) == br.value(w) for w in words_of(B.space.keys, 3)[:200])
print("d_H f == [mu, f] on a word sweep:", agree)

# The identity cochain is sent to the multiplication itself.
dh_id = hoch_d(identity_cochain(B), ops)
print("d_H(id) == mu:",
      all(dh_id.value(w) == mu.value(w) for w in words_of(B.space.keys, 2)))

# The unit is a two-sided unit for the cup product and a cocycle.
one = unit_cochain(B)
g2 = random_cochain(B, B, 1, 0, seed=7, label="g")
print("1 u g == g:",
      all(cup(one, g2).value(w) == g2.value(w)
          for w in words_of(B.space.keys, 1)))

# Interior-window cohomology of the two-point algebra grows forever: the
# degree-zero classes accumulate one dimension per unit of arity window,
# the hallmark of the direct-sum totalization.
A = dual_odd_algebra(DualOdd(LieAlgebra.abelian(1)), OddSym(LieAlgebra.abelian(1)))
dims = [interior_hh(A, 0, P)[0] for P in range(2, 7)]
print("interior degree-zero dimensions, windows 2..6:", dims)
