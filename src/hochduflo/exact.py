"""Exact sparse rational linear algebra over enumerated graded bases.

Three value types carry the whole package:

* :class:`BasisSpace` -- an ordered list of canonical monomial keys, each with
  an integer degree,
* :class:`GradedVector` -- a sparse rational combination of basis keys,
* :class:`GradedMap` -- a degree-homogeneous sparse linear map, stored
  columnwise over source keys (an absent column is the zero column).

Coefficients are arbitrary-precision rationals of type ``int`` or
``Fraction``; there is no floating point anywhere.  An integer coefficient
stays an ``int`` (no gcd, no allocation of a ``Fraction`` per ``+`` or
``*``) until a division makes it a ``Fraction``.  Every division is
written ``Q(a, b)``, never ``a / b``, because ``int / int`` is a float.
Equal values of the two types compare and hash equal, so vectors, dict keys
and printed reports do not see the difference.

Row reduction is sparse and fraction-free: rows are ``{column: int}`` dicts,
eliminated column by column from the left, each combination divided by its
content so entries stay integral and small.  The rest of the package hands
sparse vectors (or ``{key: coeff}`` dicts) to ``solve``, ``rank``,
``kernel_basis`` and ``cohomology_slice``; only this module lays them out as
the dense rows ``bareiss_echelon`` reads.
"""

from __future__ import annotations

import functools
import hashlib
import random
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

Q = Fraction
ZERO = 0
ONE = 1


class StructuralError(Exception):
    """Incompatible spaces, degrees or presentations."""


class WindowOverflow(Exception):
    """A computation left the finite truncation window.

    Raised instead of silently dropping terms; callers choose windows large
    enough for the identity at hand.
    """


def key_memo(method):
    """Memoize a pure key-level map of a window object, per instance.

    The table is the dict ``_memo_<name>`` on the instance, keyed by the
    argument tuple, so it lives and dies with the window.  A refusal
    (``WindowOverflow``) propagates before anything is stored and is raised
    again on the next call.  Results are shared, not copied: every caller
    gets the same vector and only reads it.  The undecorated method is
    ``__wrapped__``.
    """
    attr = "_memo_" + method.__name__

    @functools.wraps(method)
    def memoized(self, *keys):
        try:
            return self.__dict__[attr][keys]
        except KeyError:
            pass
        got = method(self, *keys)
        self.__dict__.setdefault(attr, {})[keys] = got
        return got

    return memoized


def as_q(x) -> int | Fraction:
    """An exact rational coefficient: ``int`` or ``Fraction``, never float.

    Ints are returned unchanged (a ``bool`` becomes its ``int``), strings
    such as ``"3/4"`` are parsed, anything else is refused.
    """
    t = type(x)
    if t is int or t is Fraction:
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return int(x)
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

    def coeff(self, key) -> int | Fraction:
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
    the truncation window; :func:`guarded_map` builds them).  Coverage
    propagates through sums, scalings and compositions.
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
            raise self._uncovered(key)

    def _uncovered(self, key):
        return WindowOverflow("key %r outside the covered region of a map "
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

    def __repr__(self):
        return "GradedMap(%s -> %s, shift=%d, %d columns)" % (
            self.source.name, self.target.name, self.shift, len(self.columns))


class LazyMap(GradedMap):
    """The map whose column at each source key is ``col_fn(key)``, computed
    when the key is first read (built by :func:`guarded_map`).

    A computed column is stored and handed out shared and read-only.  A key
    whose ``col_fn`` raises WindowOverflow is remembered as refused and
    raises again on every read; it is never stored as zero.  ``columns``
    and ``covered``, and with them every whole-map reader of
    :class:`GradedMap` (sums, scalings, compositions, equality), first try
    every key not read yet, once.  Columns are never set from outside.
    """

    __slots__ = ("_col_fn", "_read", "_refused")

    def __init__(self, source, target, shift, col_fn):
        self.source = source
        self.target = target
        self.shift = shift
        self._col_fn = col_fn
        self._read = {}
        self._refused = set()

    def column(self, key) -> GradedVector:
        try:
            return self._read[key]
        except KeyError:
            pass
        if key in self._refused:
            raise self._uncovered(key)
        if key not in self.source.degree:
            raise WindowOverflow("key %r outside window %s"
                                 % (key, self.source.name))
        try:
            col = self._col_fn(key)
        except WindowOverflow:
            self._refused.add(key)
            raise
        if col.space is not self.target:
            raise StructuralError("column lives in %s, expected %s"
                                  % (col.space.name, self.target.name))
        self._read[key] = col
        return col

    def __call__(self, v):
        if isinstance(v, GradedVector):
            if v.space is not self.source:
                raise StructuralError("argument lives in %s, expected %s"
                                      % (v.space.name, self.source.name))
            out = GradedVector.zero(self.target)
            for key, c in v.coeffs.items():
                out.add_inplace(self.column(key), c)
            return out
        return self.column(v)

    def _materialize(self):
        """Read every key once; store the non-zero columns, in source order,
        and the coverage (None when no key was refused).  ``col_fn`` is not
        called again, so it is dropped with the operands it holds."""
        if self._col_fn is None:
            return
        read = self._read
        columns = {}
        for key in self.source.keys:
            if key not in read and key not in self._refused:
                try:
                    self.column(key)
                except WindowOverflow:
                    continue
            col = read.get(key)
            if col:
                columns[key] = col
        _COLUMNS.__set__(self, columns)
        _COVERED.__set__(self, frozenset(read) if self._refused else None)
        self._col_fn = None

    @property
    def columns(self):
        self._materialize()
        return _COLUMNS.__get__(self)

    @property
    def covered(self):
        self._materialize()
        return _COVERED.__get__(self)

    def set_column(self, key, vec, check=True):
        raise StructuralError("the columns of a lazy map are computed, "
                              "not set")


# the storage slots a LazyMap fills once it has read every key
_COLUMNS, _COVERED = GradedMap.columns, GradedMap.covered


def guarded_map(source, target, shift, col_fn) -> LazyMap:
    """The map whose column at each source key is ``col_fn(key)``.

    Each column is computed when first read.  A key whose column raises
    WindowOverflow is not covered: reading it raises again, instead of
    returning zero.  The coverage is None when no column leaves the window.
    """
    return LazyMap(source, target, shift, col_fn)


# ---------------------------------------------------------------------------
# sparse fraction-free row reduction
# ---------------------------------------------------------------------------

def _primitive(row):
    """Divide a sparse integer row by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {j: v // g for j, v in row.items()}
    return row


def _integer_row(row):
    """Sparse primitive integer row ``{column: int}`` of a dense rational row.

    Zero cells are dropped before any rational arithmetic; denominators are
    cleared over the non-zeros only.
    """
    cells = {}
    for j, c in enumerate(row):
        if c is not ZERO and c:
            q = as_q(c)
            if q:
                cells[j] = q
    if not cells:
        return cells
    denom = lcm(*(q.denominator for q in cells.values()))
    return _primitive({j: q.numerator * (denom // q.denominator)
                       for j, q in cells.items()})


def bareiss_echelon(rows):
    """Sparse fraction-free echelon form of a dense rational matrix.

    Input rows are lists of rationals.  Returns ``(echelon, pivot_cols)``:
    ``echelon`` is a list of sparse primitive integer rows ``{column: int}``,
    the i-th with leading column ``pivot_cols[i]``, and the pivot columns are
    the leftmost linearly independent columns of the input, in increasing
    order.

    Each row waits in the bucket of its leading column, and the columns are
    taken from left to right.  A bucket's pivot is its row with the smallest
    ``(|leading entry|, non-zeros)``; every other row ``r`` of the bucket is
    replaced by ``pc * r - ic * pivot`` (both scaled down by ``gcd(pc, ic)``),
    divided by its content and re-bucketed.  Dividing by the content replaces
    Bareiss's exact division by the previous pivot, so entries stay integral
    and small without touching any other row.

    The name is Bareiss's, for the dense fraction-free scheme this replaced;
    it is kept because ``perfbench/tracer.py`` looks the function up by name.
    """
    buckets = {}
    columns = []

    def put(row):
        lead = min(row)
        bucket = buckets.get(lead)
        if bucket is None:
            buckets[lead] = [row]
            heappush(columns, lead)
        else:
            bucket.append(row)

    for row in rows:
        row = _integer_row(row)
        if row:
            put(row)
    echelon, pivots = [], []
    while columns:
        c = heappop(columns)
        bucket = buckets.pop(c)
        prow = min(bucket, key=lambda row: (abs(row[c]), len(row)))
        pc = prow[c]
        for row in bucket:
            if row is prow:
                continue
            g = gcd(pc, row[c])
            a, b = pc // g, row[c] // g
            new = {j: a * v for j, v in row.items()}
            for j, v in prow.items():
                x = new.get(j, 0) - b * v
                if x:
                    new[j] = x
                else:
                    del new[j]
            if new:
                put(_primitive(new))
        echelon.append(prow)
        pivots.append(c)
    return echelon, pivots


def _back_substitute(echelon, pivots, fixed, ncols):
    """Solution of ``echelon * x = 0`` with ``x`` fixed on ``fixed``.

    ``fixed`` maps non-pivot columns to values; every other non-pivot column
    is zero, which makes the solution unique.  Returns the dense list of
    ``x`` on columns ``0 .. ncols - 1``.
    """
    sol = dict(fixed)
    for i in range(len(echelon) - 1, -1, -1):
        row = echelon[i]
        s = ZERO
        for j, v in row.items():
            x = sol.get(j)
            if x is not None:
                s += v * x
        if s:
            sol[pivots[i]] = Q(-s, row[pivots[i]])
    out = [ZERO] * ncols
    for j, x in sol.items():
        if j < ncols:
            out[j] = x
    return out


def rows_rank(rows) -> int:
    _, pivots = bareiss_echelon(rows)
    return len(pivots)


def rows_nullspace(rows, ncols):
    """Exact rational basis of the right nullspace of the given rows.

    One vector per non-pivot column: 1 there, 0 on the other non-pivot
    columns.
    """
    ech, pivots = bareiss_echelon(rows) if rows else ([], [])
    pivot_set = set(pivots)
    return [_back_substitute(ech, pivots, {free: ONE}, ncols)
            for free in range(ncols) if free not in pivot_set]


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
    if pivots and pivots[-1] == ncols:
        return None
    # the right-hand side is the column ncols of [rows | rhs] (x, -1) = 0
    return _back_substitute(ech, pivots, {ncols: -ONE}, ncols)


# ---------------------------------------------------------------------------
# linear algebra on sparse vectors
# ---------------------------------------------------------------------------

def _coeffs(v):
    return v.coeffs if isinstance(v, GradedVector) else v


def _column_rows(columns, target=None):
    """The dense rows whose j-th column is ``columns[j]``.

    Columns (and the target) are GradedVectors or ``{key: coeff}`` dicts.
    There is one row per key some of them uses, in order of first use: the
    pivots are the leftmost independent columns and free variables are
    zero, so no solution, nullspace basis or rank depends on the row order
    or on rows that are zero everywhere.  Returns ``(rows, keys)``.
    """
    vectors = [_coeffs(v) for v in columns]
    index = {}
    for v in vectors + ([] if target is None else [_coeffs(target)]):
        for key in v:
            index.setdefault(key, len(index))
    rows = [[ZERO] * len(vectors) for _ in index]
    for j, v in enumerate(vectors):
        for key, c in v.items():
            rows[index[key]][j] = c
    return rows, list(index)


def solve(columns, target):
    """Elimination-minimal coefficients ``x`` with ``sum_j x[j] columns[j]
    = target``, as a list, or None when the target is not in their span."""
    rows, keys = _column_rows(columns, target)
    if not rows:
        return [ZERO] * len(columns)
    coeffs = _coeffs(target)
    return rows_solve(rows, [coeffs.get(k, ZERO) for k in keys])


def rank(vectors) -> int:
    """Dimension of the span of GradedVectors or ``{key: coeff}`` dicts."""
    return rows_rank(_column_rows(vectors)[0])


def kernel_basis(f: GradedMap, degree: int):
    """Exact rational basis of ker(f) on the degree slice of the source."""
    source_keys = f.source.keys_of_degree(degree)
    if not source_keys:
        return []
    rows, _ = _column_rows([f.columns.get(k, {}) for k in source_keys])
    return [GradedVector(f.source, {source_keys[j]: c
                                    for j, c in enumerate(sol) if c})
            for sol in rows_nullspace(rows, len(source_keys))]


def cohomology_slice(d_in: GradedMap, d_out: GradedMap, degree: int):
    """Dimension and representatives of ker(d_out)/im(d_in) on a slice.

    ``d_in`` lands in the degree-``degree`` slice of its target, ``d_out``
    starts there; ``d_out . d_in = 0`` is a precondition and is checked.
    The representatives are the kernel basis vectors whose columns are
    pivots of ``[images | kernel basis]``: each one in turn that is
    independent of the images and of the representatives before it.
    """
    if d_in.target is not d_out.source:
        raise StructuralError("complex slices do not line up")
    images = []
    for key in d_in.source.keys_of_degree(degree - d_in.shift):
        img = d_in.column(key)
        if d_out(img):
            raise StructuralError("differential does not square to zero at %r" % (key,))
        if img:
            images.append(img)
    kern = kernel_basis(d_out, degree)
    _, pivots = bareiss_echelon(_column_rows(images + kern)[0])
    reps = [kern[j - len(images)] for j in pivots if j >= len(images)]
    # the other pivots are images: their count is the rank of the image
    return len(kern) - (len(pivots) - len(reps)), reps


# ---------------------------------------------------------------------------
# deterministic seeded vectors
# ---------------------------------------------------------------------------

def derive_seed(*parts) -> int:
    """Stable integer seed from arbitrary repr-able parts."""
    h = hashlib.blake2b(("|".join(repr(p) for p in parts)).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def random_coefficients(space: BasisSpace, degree: int, seed: int,
                        n: int) -> list:
    """The first ``n`` coefficients :func:`random_vector` draws on a slice.

    Each is ``rng.randint(-3, 3)``: a 3-bit word, redrawn while it is 7,
    minus 3.  ``getrandbits(3)`` is the top 3 bits of one 32-bit output of
    the generator, and ``getrandbits(32 * m)`` is m outputs as little-endian
    4-byte words, so the words are read in bulk, from the top byte of each,
    and more are drawn while rejections leave the list short.
    """
    bits = random.Random(
        derive_seed("random_vector", space.name, degree, seed)).getrandbits
    out = []
    while len(out) < n:
        m = n - len(out)
        out += [_DRAW[b] for b in bits(32 * m).to_bytes(4 * m, "little")[3::4]
                if b < 224]
    return out


# randint(-3, 3) of the top byte b of a 32-bit output, for b >> 5 below 7
_DRAW = [(b >> 5) - 3 for b in range(224)]


def random_vector(space: BasisSpace, degree: int, seed: int) -> GradedVector:
    """Deterministic pseudo-random vector on a degree slice.

    Coefficients are integers in [-3, 3], drawn by ``rng.randint(-3, 3)``
    in key order (see :func:`random_coefficients`); the result is a pure
    function of ``(space.name, degree, seed)``.  An empty slice gives the
    zero vector.
    """
    keys = space.keys_of_degree(degree)
    v = GradedVector.zero(space)
    if not keys:
        return v
    v.coeffs = {key: c for key, c in zip(
        keys, random_coefficients(space, degree, seed, len(keys))) if c}
    return v
