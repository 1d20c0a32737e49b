"""Koszul signs, permutation parities and monomial normal forms.

Every sign in the package funnels through this module: unshuffle signs for
symmetric coproducts and the signs absorbed when a graded monomial is
brought to normal form.  Keeping a single normalization point prevents sign
drift between subsystems.
"""

from __future__ import annotations

from itertools import combinations


def perm_parity(perm) -> int:
    """Sign (+1/-1) of a permutation given as a tuple of 0-based values."""
    perm = list(perm)
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def koszul_sign(degrees, perm) -> int:
    """Koszul sign of rearranging graded letters by ``perm``.

    ``degrees[i]`` is the degree of the i-th letter of the *original* word;
    the permuted word is ``(x[perm[0]], x[perm[1]], ...)``.  The sign is
    ``(-1)`` for every transposed pair of odd letters.
    """
    sign = 1
    n = len(perm)
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b] and (degrees[perm[a]] * degrees[perm[b]]) % 2:
                sign = -sign
    return sign


def sort_monomial(letters, degree_of, descending: bool = False):
    """Bring a graded commutative monomial to normal form.

    Returns ``(key, sign)`` where ``key`` is the letters sorted (ascending by
    default, descending for reversed-order dual monomials) and ``sign`` the
    Koszul sign absorbed by the sorting.  Returns ``(None, 0)`` when an odd
    letter repeats, i.e. the monomial is zero.
    """
    letters = list(letters)
    n = len(letters)
    degs = [degree_of(x) for x in letters]
    for i in range(n):
        for j in range(i + 1, n):
            if letters[i] == letters[j] and degs[i] % 2:
                return None, 0
    # stable insertion sort, tracking Koszul signs of adjacent swaps
    sign = 1
    for i in range(1, n):
        j = i
        while j > 0 and ((letters[j - 1] > letters[j]) != descending) and letters[j - 1] != letters[j]:
            if (degs[j - 1] * degs[j]) % 2:
                sign = -sign
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            degs[j - 1], degs[j] = degs[j], degs[j - 1]
            j -= 1
    return tuple(letters), sign


def unshuffles(n: int, k: int):
    """Yield ``(left, right)`` index tuples of all (k, n-k) unshuffles."""
    universe = range(n)
    for left in combinations(universe, k):
        leftset = set(left)
        right = tuple(i for i in universe if i not in leftset)
        yield left, right


def unshuffle_sign(degrees, left, right) -> int:
    """Koszul sign of splitting a word into the (left, right) unshuffle."""
    return koszul_sign(degrees, tuple(left) + tuple(right))


def sgn(exponent: int) -> int:
    """(-1)**exponent, safe for negative exponents (stays an int)."""
    return -1 if exponent % 2 else 1
