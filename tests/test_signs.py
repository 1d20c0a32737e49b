"""Sign machinery against brute-force oracles."""

import random
from itertools import permutations

from hypothesis import given, settings, strategies as st

from hochduflo.signs import (koszul_sign, perm_parity, sgn, sort_monomial,
                             unshuffle_sign, unshuffles)

from oracles import koszul_sign_oracle, perm_sign_oracle, unshuffles_oracle


def test_perm_parity_matches_inversion_count():
    for n in range(1, 6):
        for perm in permutations(range(n)):
            assert perm_parity(perm) == perm_sign_oracle(perm)


def test_koszul_sign_matches_transposition_tracking():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 6)
        degs = [rng.randint(-2, 2) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        assert koszul_sign(degs, perm) == koszul_sign_oracle(degs, perm)


def test_even_letters_never_sign():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 6)
        degs = [2 * rng.randint(-2, 2) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        assert koszul_sign(degs, perm) == 1


def test_sort_monomial_odd_square_is_zero():
    key, sign = sort_monomial((3, 3), lambda i: -1)
    assert key is None and sign == 0
    key, sign = sort_monomial((3, 1), lambda i: -1)
    assert key == (1, 3) and sign == -1
    key, sign = sort_monomial((3, 1), lambda i: 0)
    assert key == (1, 3) and sign == 1
    key, sign = sort_monomial((1, 3), lambda i: 1, descending=True)
    assert key == (3, 1) and sign == -1


@st.composite
def graded_words(draw):
    """A word over letters 0..5, each with a degree in -2..2."""
    degrees = draw(st.lists(st.integers(-2, 2), min_size=6, max_size=6))
    word = draw(st.lists(st.integers(0, 5), max_size=7))
    return degrees, word


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graded_words(), st.booleans())
def test_sort_monomial_sign_is_koszul_of_its_sorting_permutation(
        graded, descending):
    degrees, word = graded
    # keep the first occurrence of each odd letter
    word = [x for i, x in enumerate(word)
            if not (degrees[x] % 2 and x in word[:i])]
    key, sign = sort_monomial(word, degrees.__getitem__, descending)
    perm = sorted(range(len(word)), key=word.__getitem__, reverse=descending)
    assert key == tuple(word[i] for i in perm)
    assert sign == koszul_sign([degrees[x] for x in word], perm)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graded_words(), st.booleans())
def test_sort_monomial_is_zero_exactly_when_an_odd_letter_repeats(
        graded, descending):
    degrees, word = graded
    odd = [x for x in word if degrees[x] % 2]
    key, sign = sort_monomial(word, degrees.__getitem__, descending)
    assert ((key, sign) == (None, 0)) == (len(set(odd)) < len(odd))


@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(0, 7))
    return draw(st.permutations(range(n))), draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(permutation_pairs())
def test_perm_parity_is_multiplicative(pair):
    p, q = pair
    composed = [p[q[i]] for i in range(len(p))]
    assert perm_parity(composed) == perm_parity(p) * perm_parity(q)


def test_unshuffles_match_combinations():
    for n in range(0, 6):
        for k in range(0, n + 1):
            got = sorted(unshuffles(n, k))
            want = sorted(unshuffles_oracle(n, k))
            assert got == want


def test_unshuffle_sign_is_koszul_of_concatenation():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        degs = [rng.randint(-1, 1) for _ in range(n)]
        for left, right in unshuffles(n, k):
            assert unshuffle_sign(degs, left, right) == \
                koszul_sign_oracle(degs, tuple(left) + tuple(right))


def test_sgn_safe_for_negative_exponents():
    assert sgn(-3) == -1 and sgn(-4) == 1 and sgn(0) == 1
    assert isinstance(sgn(-2), int)
