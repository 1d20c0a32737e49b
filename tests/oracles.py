"""Independent oracles for the test suite.

Everything here is implemented from first principles, avoiding the package's
own routines: plain fraction Gaussian elimination (no fraction-free
pivoting), the dense Bareiss elimination the package used before its sparse
one, permutation signs by inversion counting, pairings by recursive
Laplace-style expansion, series coefficients by direct Cauchy products, and
PBW normal ordering by a different rewriting strategy.
"""

from fractions import Fraction
from itertools import permutations

Q = Fraction


# -- dense rational elimination (textbook, with plain division) -------------

def gauss_rank(rows):
    mat = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][c]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def gauss_nullity(rows, ncols):
    if not rows:
        return ncols
    return ncols - gauss_rank(rows)


# -- dense fraction-free (Bareiss) elimination ------------------------------
# The package's elimination before it became sparse, kept as the reference
# that the sparse solver must reproduce list for list.

ZERO = Fraction(0)
ONE = Fraction(1)


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


def dense_bareiss_echelon(rows):
    """Fraction-free (Bareiss) echelon form of a dense rational matrix.

    Input rows are lists of Fractions; returns ``(echelon, pivot_cols)`` where
    ``echelon`` is a list of integer rows in row echelon form.
    """
    mat = [_clear_denominators([Fraction(c) for c in row]) for row in rows]
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


def dense_rows_rank(rows) -> int:
    _, pivots = dense_bareiss_echelon(rows)
    return len(pivots)


def dense_rows_nullspace(rows, ncols):
    """Exact rational basis of the right nullspace of the given rows."""
    ech, pivots = dense_bareiss_echelon(rows) if rows else ([], [])
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


def dense_rows_solve(rows, rhs):
    """Minimal-support particular solution of ``rows * x = rhs`` or None.

    Free variables are set to zero, so the solution is the one produced by
    plain elimination (the "elimination-minimal" preimage).
    """
    nrows = len(rows)
    if nrows == 0:
        return None if any(rhs) else []
    ncols = len(rows[0])
    aug = [list(rows[i]) + [Fraction(rhs[i])] for i in range(nrows)]
    ech, pivots = dense_bareiss_echelon(aug)
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


# -- permutation and Koszul signs by inversion counting ----------------------

def perm_sign_oracle(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def koszul_sign_oracle(degrees, perm):
    """Track adjacent transpositions explicitly."""
    arr = list(perm)
    sign = 1
    for i in range(len(arr)):
        j = i
        while arr[j] != i:
            j += 1
        while j > i:
            if (degrees[arr[j]] * degrees[arr[j - 1]]) % 2:
                sign = -sign
            arr[j], arr[j - 1] = arr[j - 1], arr[j]
            j -= 1
    return sign


# -- symmetric pairing by exhaustive permutation enumeration -----------------

def sym_pair_oracle(first, second, first_degs, second_degs, base):
    """<a_1 ... a_p, b_1 ... b_q> = sum over pairings with Koszul signs."""
    if len(first) != len(second):
        return Q(0)
    n = len(first)
    total = Q(0)
    for perm in permutations(range(n)):
        eps = koszul_sign_oracle(second_degs, perm)
        interleave = 0
        pdegs = [second_degs[i] for i in perm]
        for i in range(n):
            for j in range(i + 1, n):
                interleave += pdegs[i] * first_degs[j]
        val = Q(1)
        ok = True
        for i in range(n):
            b = base(first[i], second[perm[i]])
            if not b:
                ok = False
                break
            val *= b
        if ok:
            total += eps * (-1 if interleave % 2 else 1) * val
    return total


# -- truncated series for log((1 - e^{-t})/t) via a derivative recursion ----

def duflo_log_oracle(order):
    """Coefficients of log f with f = (1-e^{-t})/t, via f g' = f' solved
    degree by degree (g' = (log f)')."""
    from math import factorial
    f = [Q((-1) ** n, factorial(n + 1)) for n in range(order + 2)]
    fp = [Q(n + 1) * f[n + 1] for n in range(order + 1)]
    gp = [Q(0)] * (order + 1)
    for n in range(order + 1):
        s = fp[n]
        for k in range(n):
            s -= f[n - k] * gp[k]
        gp[n] = s / f[0]
    g = [Q(0)] * (order + 1)
    for n in range(1, order + 1):
        g[n] = gp[n - 1] / n
    return g


# -- PBW normal ordering by last-descent rewriting ---------------------------

def pbw_normal_oracle(bracket, word):
    """Normal ordering rewriting the LAST descent first.

    ``bracket(i, j)`` returns the dict of [e_i, e_j]; returns a dict from
    sorted words to coefficients.
    """
    out = {}
    stack = [(tuple(word), Q(1))]
    while stack:
        w, c = stack.pop()
        desc = None
        for t in range(len(w) - 2, -1, -1):
            if w[t] > w[t + 1]:
                desc = t
                break
        if desc is None:
            out[w] = out.get(w, Q(0)) + c
            if not out[w]:
                del out[w]
            continue
        a, b = w[desc], w[desc + 1]
        stack.append((w[:desc] + (b, a) + w[desc + 2:], c))
        for k, ck in bracket(a, b).items():
            stack.append((w[:desc] + (k,) + w[desc + 2:], c * Fraction(ck)))
    return out


# -- unshuffles by brute force ------------------------------------------------

def unshuffles_oracle(n, k):
    from itertools import combinations
    out = []
    for left in combinations(range(n), k):
        right = tuple(i for i in range(n) if i not in left)
        out.append((left, right))
    return out
