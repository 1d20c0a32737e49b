"""Exact sparse rational linear algebra over enumerated graded bases.

Three value types carry the whole package:

* :class:`BasisSpace` -- an ordered list of canonical monomial keys, each with
  an integer degree,
* :class:`GradedVector` -- a sparse rational combination of basis keys,
* :class:`GradedMap` -- a degree-homogeneous sparse linear map, stored
  columnwise over source keys (an absent column is the zero column).

Coefficients are arbitrary-precision rationals; there is no floating point
anywhere.  Row reduction is fraction-free (Bareiss pivoting with exact
division) so intermediate entries stay integral and bounded.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

Q = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


class StructuralError(Exception):
    """Incompatible spaces, degrees or presentations."""


class WindowOverflow(Exception):
    """A computation left the finite truncation window.

    Raised instead of silently dropping terms; callers choose windows large
    enough for the identity at hand.
    """


def as_q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise StructuralError("coefficients must be rational, got %r" % (x,))


class BasisSpace:
    """Ordered basis of canonical homogeneous monomial keys."""

    __slots__ = ("name", "keys", "degree", "index", "_by_degree")

    def __init__(self, name: str, items):
        self.name = name
        keys = []
        degree = {}
        index = {}
        for key, deg in items:
            if key in degree:
                raise StructuralError("duplicate key %r in %s" % (key, name))
            degree[key] = deg
            index[key] = len(keys)
            keys.append(key)
        self.keys = tuple(keys)
        self.degree = degree
        self.index = index
        self._by_degree = None

    @property
    def dim(self) -> int:
        return len(self.keys)

    def __contains__(self, key) -> bool:
        return key in self.degree

    def degree_of(self, key) -> int:
        try:
            return self.degree[key]
        except KeyError:
            raise WindowOverflow("key %r outside window %s" % (key, self.name))

    def keys_of_degree(self, deg: int):
        if self._by_degree is None:
            table = {}
            for key in self.keys:
                table.setdefault(self.degree[key], []).append(key)
            self._by_degree = {d: tuple(ks) for d, ks in table.items()}
        return self._by_degree.get(deg, ())

    def degrees(self):
        if self._by_degree is None:
            self.keys_of_degree(0)
        return sorted(self._by_degree)

    def __repr__(self):
        return "BasisSpace(%s, dim=%d)" % (self.name, self.dim)


class GradedVector:
    """Sparse rational combination of basis keys; no stored zeros."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: BasisSpace, coeffs=None):
        self.space = space
        if coeffs:
            clean = {}
            for key, c in coeffs.items():
                c = as_q(c)
                if c:
                    if key not in space.degree:
                        raise WindowOverflow(
                            "key %r outside window %s" % (key, space.name))
                    clean[key] = c
            self.coeffs = clean
        else:
            self.coeffs = {}

    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def basis(cls, space, key, coeff=ONE):
        v = cls(space)
        coeff = as_q(coeff)
        if coeff:
            if key not in space.degree:
                raise WindowOverflow("key %r outside window %s" % (key, space.name))
            v.coeffs[key] = coeff
        return v

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        return self.space is other.space and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("GradedVector is not hashable")

    def items(self):
        return self.coeffs.items()

    def coeff(self, key) -> Fraction:
        return self.coeffs.get(key, ZERO)

    def copy(self):
        v = GradedVector(self.space)
        v.coeffs = dict(self.coeffs)
        return v

    def __add__(self, other):
        if self.space is not other.space:
            raise StructuralError("vector spaces differ: %s vs %s"
                                  % (self.space.name, other.space.name))
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        v = GradedVector(self.space)
        v.coeffs = out
        return v

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        v = GradedVector(self.space)
        v.coeffs = {k: -c for k, c in self.coeffs.items()}
        return v

    def scale(self, c):
        c = as_q(c)
        v = GradedVector(self.space)
        if c:
            v.coeffs = {k: c * x for k, x in self.coeffs.items()}
        return v

    def __rmul__(self, c):
        return self.scale(c)

    def add_inplace(self, other, factor=ONE):
        """In-place accumulation; only for freshly built vectors."""
        factor = as_q(factor)
        if not factor:
            return self
        out = self.coeffs
        for key, c in other.coeffs.items():
            s = out.get(key, ZERO) + factor * c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return self

    def add_term(self, key, coeff):
        coeff = as_q(coeff)
        if not coeff:
            return self
        if key not in self.space.degree:
            raise WindowOverflow("key %r outside window %s" % (key, self.space.name))
        s = self.coeffs.get(key, ZERO) + coeff
        if s:
            self.coeffs[key] = s
        else:
            self.coeffs.pop(key, None)
        return self

    def degree(self):
        """Common degree of the support, or None for the zero vector."""
        degs = {self.space.degree[k] for k in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise StructuralError("inhomogeneous vector, degrees %s" % sorted(degs))
        return degs.pop()

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for key in sorted(self.coeffs, key=lambda k: self.space.index[k]):
            bits.append("%s*%r" % (self.coeffs[key], key))
        return " + ".join(bits)


def bilinear(mul_keys, space: BasisSpace, v: GradedVector,
             w: GradedVector) -> GradedVector:
    """The product of two vectors, extended bilinearly from ``mul_keys``."""
    out = GradedVector.zero(space)
    for k1, c1 in v.coeffs.items():
        for k2, c2 in w.coeffs.items():
            out.add_inplace(mul_keys(k1, k2), c1 * c2)
    return out


class GradedMap:
    """Degree-``shift`` sparse linear map stored columnwise.

    A missing column is zero; every stored column is checked to respect the
    declared shift at insertion time.  An optional ``covered`` set restricts
    the honest domain: reading outside it raises WindowOverflow instead of
    silently returning zero (used for operators whose true value would leave
    the truncation window).  Coverage propagates through sums, scalings and
    compositions.
    """

    __slots__ = ("source", "target", "shift", "columns", "covered")

    def __init__(self, source: BasisSpace, target: BasisSpace, shift: int,
                 columns=None, check: bool = True, covered=None):
        self.source = source
        self.target = target
        self.shift = shift
        self.columns = {}
        self.covered = frozenset(covered) if covered is not None else None
        if columns:
            for key, vec in columns.items():
                self.set_column(key, vec, check=check)

    @classmethod
    def zero(cls, source, target, shift=0):
        return cls(source, target, shift)

    @classmethod
    def identity(cls, space):
        m = cls(space, space, 0)
        for key in space.keys:
            m.columns[key] = GradedVector.basis(space, key)
        return m

    def _check_covered(self, key):
        if self.covered is not None and key not in self.covered:
            raise WindowOverflow("key %r outside the covered region of a map "
                                 "%s -> %s" % (key, self.source.name,
                                               self.target.name))

    def set_column(self, key, vec: GradedVector, check: bool = True):
        if key not in self.source.degree:
            raise WindowOverflow("key %r outside window %s" % (key, self.source.name))
        self._check_covered(key)
        if vec.space is not self.target:
            raise StructuralError("column lives in %s, expected %s"
                                  % (vec.space.name, self.target.name))
        if check and vec:
            want = self.source.degree[key] + self.shift
            for tkey in vec.coeffs:
                if self.target.degree[tkey] != want:
                    raise StructuralError(
                        "column %r breaks shift %d: target %r has degree %d, want %d"
                        % (key, self.shift, tkey, self.target.degree[tkey], want))
        if vec:
            self.columns[key] = vec
        else:
            self.columns.pop(key, None)

    def column(self, key) -> GradedVector:
        self._check_covered(key)
        col = self.columns.get(key)
        if col is None:
            if key not in self.source.degree:
                raise WindowOverflow("key %r outside window %s"
                                     % (key, self.source.name))
            return GradedVector.zero(self.target)
        return col

    def __call__(self, v):
        if isinstance(v, GradedVector):
            if v.space is not self.source:
                raise StructuralError("argument lives in %s, expected %s"
                                      % (v.space.name, self.source.name))
            out = GradedVector.zero(self.target)
            for key, c in v.coeffs.items():
                self._check_covered(key)
                col = self.columns.get(key)
                if col is not None:
                    out.add_inplace(col, c)
            return out
        return self.column(v)

    def _merge_covered(self, other):
        if self.covered is None:
            return other.covered
        if other.covered is None:
            return self.covered
        return self.covered & other.covered

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self after other (``self . other``)."""
        if other.target is not self.source:
            raise StructuralError("cannot compose: %s -> %s with %s -> %s"
                                  % (other.source.name, other.target.name,
                                     self.source.name, self.target.name))
        covered = set(other.covered) if other.covered is not None else None
        columns = {}
        for key, col in other.columns.items():
            try:
                columns[key] = self(col)
            except WindowOverflow:
                if covered is None:
                    covered = set(other.source.keys)
                covered.discard(key)
        out = GradedMap(other.source, self.target, self.shift + other.shift,
                        covered=covered)
        for key, col in columns.items():
            if covered is None or key in covered:
                out.set_column(key, col, check=False)
        return out

    def __add__(self, other):
        if (self.source is not other.source or self.target is not other.target
                or self.shift != other.shift):
            raise StructuralError("incompatible maps")
        covered = self._merge_covered(other)
        out = GradedMap(self.source, self.target, self.shift, covered=covered)
        for key in set(self.columns) | set(other.columns):
            if covered is not None and key not in covered:
                continue
            out.set_column(key, self.column(key) + other.column(key), check=False)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = GradedMap(self.source, self.target, self.shift,
                        covered=self.covered)
        c = as_q(c)
        if c:
            for key, col in self.columns.items():
                out.columns[key] = col.scale(c)
        return out

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        if self.source is not other.source or self.target is not other.target:
            return False
        keys = set(self.columns) | set(other.columns)
        return all(self.column(k) == other.column(k) for k in keys)

    def __hash__(self):
        raise TypeError("GradedMap is not hashable")

    def is_zero(self) -> bool:
        return all(not col for col in self.columns.values())

    def restrict(self, keys):
        """Restriction to a subfamily of source keys (same ambient spaces)."""
        out = GradedMap(self.source, self.target, self.shift,
                        covered=self.covered)
        for key in keys:
            col = self.columns.get(key)
            if col is not None:
                out.columns[key] = col
        return out

    def __repr__(self):
        return "GradedMap(%s -> %s, shift=%d, %d columns)" % (
            self.source.name, self.target.name, self.shift, len(self.columns))


def PartialMap(source, target, shift, covered, columns=None, check=True):
    """GradedMap defined only on a covered subfamily of source keys."""
    return GradedMap(source, target, shift, columns=columns, check=check,
                     covered=covered)


# ---------------------------------------------------------------------------
# fraction-free row reduction
# ---------------------------------------------------------------------------

def _clear_denominators(row):
    """Scale a rational row to a primitive integer row."""
    from math import gcd
    denom = 1
    for c in row:
        if c:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in row]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
    return ints


def bareiss_echelon(rows):
    """Fraction-free (Bareiss) echelon form of a dense rational matrix.

    Input rows are lists of Fractions; returns ``(echelon, pivot_cols)`` where
    ``echelon`` is a list of integer rows in row echelon form.
    """
    mat = [_clear_denominators([as_q(c) for c in row]) for row in rows]
    mat = [row for row in mat if any(row)]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= len(mat):
            break
        piv = None
        best = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                weight = (abs(mat[i][c]), sum(1 for x in mat[i] if x))
                if best is None or weight < best:
                    best = weight
                    piv = i
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pc = mat[r][c]
        for i in range(r + 1, len(mat)):
            if not any(mat[i][c:]):
                continue
            ic = mat[i][c]
            row_i = mat[i]
            row_r = mat[r]
            for j in range(c, ncols):
                row_i[j] = (pc * row_i[j] - ic * row_r[j]) // prev
        prev = pc
        pivots.append(c)
        r += 1
    mat = [row for row in mat if any(row)]
    return mat, pivots


def rows_rank(rows) -> int:
    _, pivots = bareiss_echelon(rows)
    return len(pivots)


def rows_nullspace(rows, ncols):
    """Exact rational basis of the right nullspace of the given rows."""
    ech, pivots = bareiss_echelon(rows) if rows else ([], [])
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        sol = [ZERO] * ncols
        sol[free] = ONE
        # back substitution over the integer echelon rows
        for i in range(len(ech) - 1, -1, -1):
            c = pivots[i]
            s = ZERO
            row = ech[i]
            for j in range(c + 1, ncols):
                if row[j] and sol[j]:
                    s += Fraction(row[j]) * sol[j]
            sol[c] = -s / row[c]
        basis.append(sol)
    return basis


def rows_solve(rows, rhs):
    """Minimal-support particular solution of ``rows * x = rhs`` or None.

    Free variables are set to zero, so the solution is the one produced by
    plain elimination (the "elimination-minimal" preimage).
    """
    nrows = len(rows)
    if nrows == 0:
        return None if any(rhs) else []
    ncols = len(rows[0])
    aug = [list(rows[i]) + [as_q(rhs[i])] for i in range(nrows)]
    ech, pivots = bareiss_echelon(aug)
    for row in ech:
        if not any(row[:ncols]) and row[ncols]:
            return None
    sol = [ZERO] * ncols
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        if c >= ncols:
            return None
        row = ech[i]
        s = Fraction(row[ncols])
        for j in range(c + 1, ncols):
            if row[j] and sol[j]:
                s -= Fraction(row[j]) * sol[j]
        sol[c] = s / row[c]
    return sol


# ---------------------------------------------------------------------------
# degree-slice linear algebra on graded maps
# ---------------------------------------------------------------------------

def slice_matrix(f: GradedMap, degree: int):
    """Dense matrix of ``f`` on the degree-homogeneous source slice.

    Returns ``(rows, source_keys, target_keys)`` with rows indexed by target
    keys of degree ``degree + f.shift``.
    """
    source_keys = list(f.source.keys_of_degree(degree))
    target_keys = list(f.target.keys_of_degree(degree + f.shift))
    tindex = {k: i for i, k in enumerate(target_keys)}
    rows = [[ZERO] * len(source_keys) for _ in target_keys]
    for j, skey in enumerate(source_keys):
        col = f.columns.get(skey)
        if col is None:
            continue
        for tkey, c in col.coeffs.items():
            rows[tindex[tkey]][j] = c
    return rows, source_keys, target_keys


def kernel_basis(f: GradedMap, degree: int):
    """Exact rational basis of ker(f) on the degree slice of the source."""
    rows, source_keys, _ = slice_matrix(f, degree)
    if not source_keys:
        return []
    sols = rows_nullspace(rows, len(source_keys))
    out = []
    for sol in sols:
        v = GradedVector(f.source)
        for j, c in enumerate(sol):
            if c:
                v.coeffs[source_keys[j]] = c
        out.append(v)
    return out


def rank_on_slice(f: GradedMap, degree: int) -> int:
    rows, source_keys, _ = slice_matrix(f, degree)
    if not source_keys:
        return 0
    cols = [[rows[i][j] for i in range(len(rows))] for j in range(len(source_keys))]
    return rows_rank(cols)


def image_vectors(f: GradedMap, degree: int):
    """Images of the degree-slice basis (spanning set of the image)."""
    return [f.column(k) for k in f.source.keys_of_degree(degree)]


def vectors_to_rows(vectors, keys):
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for v in vectors:
        row = [ZERO] * len(keys)
        for key, c in v.coeffs.items():
            row[index[key]] = c
        rows.append(row)
    return rows


def cohomology_slice(d_in: GradedMap, d_out: GradedMap, degree: int):
    """Dimension and representatives of ker(d_out)/im(d_in) on a slice.

    ``d_in`` lands in the degree-``degree`` slice of its target, ``d_out``
    starts there; ``d_out . d_in = 0`` is a precondition and is checked.
    """
    if d_in.target is not d_out.source:
        raise StructuralError("complex slices do not line up")
    for key in d_in.source.keys_of_degree(degree - d_in.shift):
        if d_out(d_in.column(key)):
            raise StructuralError("differential does not square to zero at %r" % (key,))
    kern = kernel_basis(d_out, degree)
    imgs = [v for v in image_vectors(d_in, degree - d_in.shift) if v]
    keys = list(d_out.source.keys_of_degree(degree))
    if not keys:
        return 0, []
    img_rows = vectors_to_rows(imgs, keys)
    base_rank = rows_rank(img_rows)
    dim = len(kern) - base_rank
    reps = []
    current = list(img_rows)
    current_rank = base_rank
    for v in kern:
        row = vectors_to_rows([v], keys)[0]
        r = rows_rank(current + [row])
        if r > current_rank:
            reps.append(v)
            current.append(row)
            current_rank = r
        if current_rank == len(kern):
            break
    return dim, reps


class ComplexSlice:
    """A finite window of a cochain complex: spaces and consecutive maps."""

    def __init__(self, spaces, maps):
        if len(maps) != len(spaces) - 1:
            raise StructuralError("need one map between consecutive spaces")
        for i, f in enumerate(maps):
            if f.source is not spaces[i] or f.target is not spaces[i + 1]:
                raise StructuralError("map %d does not connect its spaces" % i)
        self.spaces = list(spaces)
        self.maps = list(maps)

    def is_square_zero(self) -> bool:
        for i in range(len(self.maps) - 1):
            if not self.maps[i + 1].compose(self.maps[i]).is_zero():
                return False
        return True

    def cohomology(self, i: int, degree: int):
        """Cohomology at spot ``i`` restricted to a degree slice."""
        if i == 0:
            d_in = GradedMap.zero(self.spaces[0], self.spaces[0], self.maps[0].shift)
        else:
            d_in = self.maps[i - 1]
        if i == len(self.maps):
            d_out = GradedMap.zero(self.spaces[i], self.spaces[i], 1)
        else:
            d_out = self.maps[i]
        return cohomology_slice(d_in, d_out, degree)


# ---------------------------------------------------------------------------
# deterministic seeded vectors
# ---------------------------------------------------------------------------

def derive_seed(*parts) -> int:
    """Stable integer seed from arbitrary repr-able parts."""
    h = hashlib.blake2b(("|".join(repr(p) for p in parts)).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def random_vector(space: BasisSpace, degree: int, seed: int) -> GradedVector:
    """Deterministic pseudo-random vector on a degree slice.

    Coefficients are integers in [-3, 3]; the result is a pure function of
    ``(space.name, degree, seed)``.  An empty slice gives the zero vector.
    """
    keys = space.keys_of_degree(degree)
    v = GradedVector.zero(space)
    if not keys:
        return v
    rng = random.Random(derive_seed("random_vector", space.name, degree, seed))
    for key in keys:
        c = rng.randint(-3, 3)
        if c:
            v.coeffs[key] = Fraction(c)
    return v
