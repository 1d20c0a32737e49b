"""Exact core: spaces, vectors, maps, elimination, slice cohomology."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from hochduflo.exact import (BasisSpace, GradedMap, GradedVector,
                             StructuralError, WindowOverflow, ComplexSlice,
                             cohomology_slice, derive_seed, kernel_basis,
                             random_vector, rank_on_slice, rows_nullspace,
                             rows_rank, rows_solve)
from hochduflo.liealg import LieAlgebra, OddSym, DualOdd
from hochduflo.keller import LieTriple

from oracles import (dense_rows_nullspace, dense_rows_rank, dense_rows_solve,
                     gauss_nullity, gauss_rank)


def small_space(name="V"):
    return BasisSpace(name, [(("a",), 0), (("b",), 0), (("c",), 1)])


def test_duplicate_key_rejected():
    with pytest.raises(StructuralError):
        BasisSpace("bad", [(("a",), 0), (("a",), 1)])


def test_vector_arithmetic_and_zero_pruning():
    V = small_space()
    v = GradedVector.basis(V, ("a",)) + GradedVector.basis(V, ("a",), -1)
    assert v.is_zero()
    w = GradedVector(V, {("a",): Q(1, 2), ("b",): Q(-3)})
    assert (w + w).coeff(("a",)) == 1
    assert (w - w).is_zero()
    assert w.scale(0).is_zero()


def test_vector_outside_window_raises():
    V = small_space()
    with pytest.raises(WindowOverflow):
        GradedVector.basis(V, ("zzz",))


def test_map_shift_validated_at_construction():
    V = small_space()
    m = GradedMap(V, V, 1)
    with pytest.raises(StructuralError):
        m.set_column(("a",), GradedVector.basis(V, ("b",)))  # degree 0, want 1
    m.set_column(("a",), GradedVector.basis(V, ("c",)))      # degree 1 = 0+1


def test_compose_identity_and_zero():
    V = small_space()
    ident = GradedMap.identity(V)
    zero = GradedMap.zero(V, V, 0)
    m = GradedMap(V, V, 0, columns={
        ("a",): GradedVector.basis(V, ("b",), 2)})
    assert ident.compose(m) == m
    assert m.compose(ident) == m
    assert zero.compose(m).is_zero()
    assert m.compose(zero).is_zero()


def test_compose_associative_on_random_triples():
    V = small_space()
    rng = random.Random(0)
    for _ in range(30):
        maps = []
        for _ in range(3):
            m = GradedMap(V, V, 0)
            for key in V.keys:
                targets = V.keys_of_degree(V.degree[key])
                col = GradedVector.zero(V)
                for t in targets:
                    c = rng.randint(-2, 2)
                    if c:
                        col.add_term(t, c)
                m.set_column(key, col, check=False)
            maps.append(m)
        f, g, h = maps
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_koszul_differential_squares_to_zero_on_window(aff1):
    triple = LieTriple(aff1, 4)
    # the filtration sub-basis is closed under the differential
    keys = [k for k in triple.x_space.keys if len(k[0]) + len(k[1]) <= 4]
    space = BasisSpace("F4", ((k, triple.x_space.degree[k]) for k in keys))
    m = GradedMap(space, space, 1)
    for k in keys:
        col = GradedVector.zero(space)
        for t, c in triple.X.d_key(k).items():
            col.add_term(t, c)
        m.set_column(k, col, check=False)
    assert m.compose(m).is_zero()


def test_kernel_examples(sl2):
    V = small_space()
    assert kernel_basis(GradedMap.identity(V), 0) == []
    zero = GradedMap.zero(V, V, 1)
    assert len(kernel_basis(zero, 0)) == 2
    # the dual-odd degree-one slice of the semisimple algebra has no kernel
    odd, dual = OddSym(sl2), DualOdd(sl2)
    d_g = dual.differential(odd)
    assert len(kernel_basis(d_g, 1)) == 0
    # oracle: the structure-constant matrix has full rank (3x3 determinant)
    rows = []
    for j, b in enumerate(dual.space.keys_of_degree(1)):
        col = d_g.column(b)
        rows.append([col.coeff(t) for t in dual.space.keys_of_degree(2)])
    det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
           - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
           + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
    assert det != 0


def test_cohomology_slice_trivial_cases():
    k2 = BasisSpace("Q2", [((0,), 0), ((1,), 0)])
    ident = GradedMap.identity(k2)
    zero_in = GradedMap.zero(k2, k2, 1)
    # 0 -> Q -> Q -> 0 at the middle spot: identity in and out of one slot
    one = BasisSpace("Q", [((0,), 0)])
    ident1 = GradedMap.identity(one)
    # middle spot: d_in = id (shift 0 pretend 1 is fine via zero shift)
    dim, reps = cohomology_slice(ident1, GradedMap.zero(one, one, 1), 0)
    assert dim == 0 and reps == []
    # all-zero differentials on a 3-dim slice
    V = BasisSpace("V3", [((i,), 0) for i in range(3)])
    dim, reps = cohomology_slice(GradedMap.zero(V, V, 1),
                                 GradedMap.zero(V, V, 1), 0)
    assert dim == 3 and len(reps) == 3


def test_cohomology_slice_rejects_non_complex():
    one = BasisSpace("Q", [((0,), 0)])
    ident = GradedMap.identity(one)
    with pytest.raises(StructuralError):
        cohomology_slice(ident, ident, 0)


def test_koszul_resolution_total_cohomology(aff1):
    """The windowed resolution has one-dimensional cohomology in degree 0."""
    triple = LieTriple(aff1, 3)
    keys = [k for k in triple.x_space.keys if len(k[0]) + len(k[1]) <= 3]
    space = BasisSpace("F3", ((k, triple.x_space.degree[k]) for k in keys))
    d = GradedMap(space, space, 1)
    for k in keys:
        col = GradedVector.zero(space)
        for t, c in triple.X.d_key(k).items():
            col.add_term(t, c)
        d.set_column(k, col, check=False)
    zero = GradedMap.zero(space, space, 1)
    total = {}
    for n in (-3, -2, -1, 0):
        d_in = d if n > min(space.degrees()) else zero
        d_out = d if n < 0 else zero
        dim, _ = cohomology_slice(d_in, d_out, n)
        total[n] = dim
    # interior honesty: the top filtration level cannot see all boundaries,
    # so compare against an independent dense-rank computation per slice
    for n in (-2, -1, 0):
        src = space.keys_of_degree(n)
        tgt = space.keys_of_degree(n + 1)
        rows = [[d.column(s).coeff(t) for s in src] for t in tgt]
        prev = space.keys_of_degree(n - 1)
        rows_in = [[d.column(s).coeff(t) for s in prev]
                   for t in space.keys_of_degree(n)]
        nullity = gauss_nullity(rows, len(src)) if src else 0
        rank_in = gauss_rank(rows_in) if prev and rows_in else 0
        assert total[n] == nullity - rank_in
    assert total[0] == 1 and total[-1] == 0 and total[-2] == 0


def test_rank_nullity_on_random_maps():
    V = BasisSpace("V", [((i,), 0) for i in range(5)])
    W = BasisSpace("W", [((i,), 0) for i in range(4)])
    rng = random.Random(7)
    for trial in range(10):
        m = GradedMap(V, W, 0)
        for key in V.keys:
            col = GradedVector.zero(W)
            for t in W.keys:
                c = rng.randint(-2, 2)
                if c:
                    col.add_term(t, c)
            m.set_column(key, col, check=False)
        kern = kernel_basis(m, 0)
        rank = rank_on_slice(m, 0)
        assert len(kern) + rank == V.dim
        rows = [[m.column(s).coeff(t) for s in V.keys] for t in W.keys]
        assert rank == gauss_rank(rows)


def test_random_vector_determinism_and_spread():
    V = BasisSpace("V", [((i,), 0) for i in range(5)])
    a = random_vector(V, 0, 11)
    b = random_vector(V, 0, 11)
    assert a == b
    assert random_vector(V, 99, 3).is_zero()      # empty slice
    assert any(len(random_vector(V, 0, s).coeffs) >= 2 for s in range(100))


def test_fraction_free_solver_agrees_with_plain_gauss():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
                for _ in range(4)]
        assert rows_rank(rows) == gauss_rank(rows)
        assert len(rows_nullspace(rows, 5)) == gauss_nullity(rows, 5)
        for sol in rows_nullspace(rows, 5):
            for row in rows:
                assert sum(c * x for c, x in zip(row, sol)) == 0


@st.composite
def sparse_systems(draw):
    """A sparse rational matrix of 0-12 rows and columns with a right-hand
    side: fractional entries, zero and duplicate rows, and a right-hand side
    that is either the image of a rational vector or drawn freely."""
    ncols = draw(st.integers(0, 12))
    fill = draw(st.integers(1, 10))
    entry = st.fractions(-6, 6, max_denominator=4)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["random", "random", "zero", "duplicate"]))
        if kind == "zero":
            rows.append([Q(0)] * ncols)
        elif kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([draw(entry) if draw(st.integers(1, 10)) <= fill
                         else Q(0) for _ in range(ncols)])
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Q(0)) for row in rows]
    else:
        rhs = [draw(entry) for _ in rows]
    return rows, ncols, rhs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_systems())
def test_sparse_elimination_matches_dense_bareiss(system):
    rows, ncols, rhs = system
    assert rows_rank(rows) == dense_rows_rank(rows)
    assert rows_nullspace(rows, ncols) == dense_rows_nullspace(rows, ncols)
    assert rows_solve(rows, rhs) == dense_rows_solve(rows, rhs)


def test_solver_membership():
    rows = [[Q(1), Q(2)], [Q(0), Q(1)]]
    sol = rows_solve(rows, [Q(3), Q(1)])
    assert sol == [Q(1), Q(1)]
    assert rows_solve([[Q(0), Q(0)]], [Q(1)]) is None


def test_complex_slice_square_zero(aff1):
    odd, dual = OddSym(aff1), DualOdd(aff1)
    d_g = dual.differential(odd)
    sl = ComplexSlice([dual.space, dual.space, dual.space], [d_g, d_g])
    assert sl.is_square_zero()
    dim0, _ = sl.cohomology(0, 0)
    assert dim0 == 1
