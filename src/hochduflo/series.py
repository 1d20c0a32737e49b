"""Truncated formal power series with exact rational coefficients.

Two flavours:

* univariate series (lists of Fractions) with exp/log/composition, used to
  extract the coefficients of ``log((1 - e^{-t})/t)``;
* truncated polynomials on a finite-dimensional space (dictionaries keyed by
  weakly increasing index tuples), used for invariant series like the Duflo
  element and the Todd determinant.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

from .exact import Q, ZERO, ONE, StructuralError


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

def series_trim(a, order):
    a = list(a[:order + 1])
    while len(a) < order + 1:
        a.append(ZERO)
    return a


def series_mul(a, b, order):
    out = [ZERO] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        if not x:
            continue
        for j, y in enumerate(b[:order + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def series_exp(a, order):
    """exp of a series with zero constant term."""
    if a and a[0]:
        raise StructuralError("series_exp needs vanishing constant term")
    out = [ONE] + [ZERO] * order
    term = [ONE] + [ZERO] * order
    for n in range(1, order + 1):
        term = series_mul(term, a, order)
        term = [c / n for c in term]
        out = [x + y for x, y in zip(out, term)]
    return out


def series_log(a, order):
    """log of a series with constant term 1."""
    if not a or a[0] != 1:
        raise StructuralError("series_log needs constant term 1")
    u = [c for c in series_trim(a, order)]
    u[0] = ZERO
    out = [ZERO] * (order + 1)
    term = [ONE] + [ZERO] * order
    for n in range(1, order + 1):
        term = series_mul(term, u, order)
        sign = ONE if n % 2 else -ONE
        out = [x + sign * c / n for x, c in zip(out, term)]
    return out


def one_minus_exp_neg_over_t(order):
    """Coefficients of (1 - e^{-t})/t = sum_n (-1)^n t^n / (n+1)!."""
    return [Q((-1) ** n, factorial(n + 1)) for n in range(order + 1)]


def duflo_log_coefficients(order):
    """Coefficients c_k of log((1 - e^{-t})/t); c_1 = -1/2, c_2 = 1/24."""
    return series_log(one_minus_exp_neg_over_t(order), order)


# ---------------------------------------------------------------------------
# truncated polynomials on the dual of a d-dimensional space
# ---------------------------------------------------------------------------

class PolyTrunc:
    """Element of S(V^)/(degree > order) for V of dimension d.

    Keys are weakly increasing tuples of 0-based indices; the empty tuple is
    the constant term.  Everything is degree-0 commutative, so no signs.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim, order, coeffs=None):
        self.dim = dim
        self.order = order
        self.coeffs = {}
        if coeffs:
            for key, c in coeffs.items():
                c = Q(c)
                if c and len(key) <= order:
                    self.coeffs[tuple(sorted(key))] = \
                        self.coeffs.get(tuple(sorted(key)), ZERO) + c
            self.coeffs = {k: c for k, c in self.coeffs.items() if c}

    @classmethod
    def constant(cls, dim, order, c=ONE):
        return cls(dim, order, {(): Q(c)})

    @classmethod
    def zero(cls, dim, order):
        return cls(dim, order)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (self.dim == other.dim and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        raise TypeError("PolyTrunc is not hashable")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return self._wrap(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Q(c)
        return self._wrap({k: c * x for k, x in self.coeffs.items()} if c else {})

    def __mul__(self, other):
        self._check(other)
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                if len(k1) + len(k2) > self.order:
                    continue
                key = tuple(sorted(k1 + k2))
                s = out.get(key, ZERO) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return self._wrap(out)

    def exp(self):
        if () in self.coeffs:
            raise StructuralError("exp needs vanishing constant term")
        out = PolyTrunc.constant(self.dim, self.order)
        term = PolyTrunc.constant(self.dim, self.order)
        for n in range(1, self.order + 1):
            term = term * self
            term = term.scale(Q(1, n))
            out = out + term
        return out

    def component(self, k):
        """Homogeneous degree-k part."""
        return self._wrap({key: c for key, c in self.coeffs.items() if len(key) == k})

    def _check(self, other):
        if self.dim != other.dim or self.order != other.order:
            raise StructuralError("mismatched truncated polynomial rings")

    def _wrap(self, coeffs):
        p = PolyTrunc(self.dim, self.order)
        p.coeffs = coeffs
        return p

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for key in sorted(self.coeffs):
            bits.append("%s*x%s" % (self.coeffs[key], list(key) if key else ""))
        return " + ".join(bits)


def matrix_series_det(entry_series, dim, order):
    """Determinant of a dim x dim matrix with PolyTrunc entries.

    ``entry_series[i][j]`` is a PolyTrunc; the determinant is expanded over
    permutations, which is fine at desk scale (dim <= 4).
    """
    out = PolyTrunc.zero(dim=entry_series[0][0].dim, order=order)
    n = len(entry_series)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = PolyTrunc.constant(out.dim, order, sign)
        for i in range(n):
            term = term * entry_series[i][perm[i]]
        out = out + term
    return out
