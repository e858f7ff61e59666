"""Exact integer and rational linear algebra over immutable tuple matrices.

Matrices are tuples of row tuples of Python ints and vectors are tuples of
ints, so every value is hashable and safe to share between workers. All
arithmetic is exact: determinants use fraction-free elimination, rational
solves return `fractions.Fraction` entries in lowest terms, and nothing in
this module ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InvariantViolation, PreconditionError, RankError, ShapeError, SingularityError

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]
FracVec = tuple[Fraction, ...]

# Entry bound of every memo cache in the package. The largest working set in
# the benchmark cells is about 1,000 entries. Cones of `corner_ilp` are not
# memoized: each block of the enumeration keeps its own.
# The equivalence memo holds one reference simplex's searched keys and
# (U, x0) legs per entry: on the benchmark query stream at most 8 forms
# and 1.5 KB pickled, and about 6.5 KB in memory on average, so a full memo
# of such entries takes about 27 MB.
MEMO_CACHE_SIZE = 4096


def matrix(rows) -> Mat:
    """Build a matrix tuple from an iterable of integer rows, checking rectangularity.

    A tuple of equal-length int tuples is already such a matrix and is
    returned as it is, after one pass over its entries.
    """
    if _is_int_matrix(rows):
        return rows
    m = tuple(vector(row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ShapeError("rows have inconsistent lengths")
    return m


def _is_int_matrix(rows) -> bool:
    """True iff `rows` is a tuple of equal-length tuples whose entries are all ints."""
    if type(rows) is not tuple:
        return False
    for row in rows:
        if type(row) is not tuple or len(row) != len(rows[0]):
            return False
        for x in row:
            if type(x) is not int:
                return False
    return True


def vector(entries) -> Vec:
    """Build a vector tuple; an entry that is not an int (a float, a bool, a string) is an error."""
    v = tuple(entries)
    for x in v:
        if type(x) is not int:
            raise PreconditionError(f"entries must be integers, got {v!r}")
    return v


def shape(m: Mat) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Mat) -> Mat:
    return tuple(tuple(col) for col in zip(*m)) if m else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, x) -> tuple:
    ra, ca = shape(a)
    if ca != len(x):
        raise ShapeError(f"cannot apply {ra}x{ca} to a vector of length {len(x)}")
    return tuple(sum(e * v for e, v in zip(row, x)) for row in a)


def dot(u, v):
    if len(u) != len(v):
        raise ShapeError("dot product of vectors with different lengths")
    return sum(x * y for x, y in zip(u, v))


def det(m: Mat) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    r, c = shape(m)
    if r != c:
        raise ShapeError(f"determinant of a non-square {r}x{c} matrix")
    n = r
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: the division by the previous pivot is exact.
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def _drop(m: Mat, row: int, col: int) -> Mat:
    return tuple(
        tuple(x for j, x in enumerate(r) if j != col)
        for i, r in enumerate(m)
        if i != row
    )


def adjugate(m: Mat) -> Mat:
    """Adjugate matrix: m @ adjugate(m) == det(m) * I, also for singular m."""
    return _adjugate_cached(matrix(m))


@lru_cache(maxsize=MEMO_CACHE_SIZE)
def _adjugate_cached(m: Mat) -> Mat:
    """One fraction-free (Bareiss) Gauss-Jordan pass on [m | I].

    After step k every entry is, up to sign, a (k+1) x (k+1) minor of
    [m | I], so each row operation divides exactly by the previous pivot.
    With P the row swaps made, the left block ends as det(P m) * I and the
    right block as det(P m) * m^-1 = sign(P) * adj(m). A column without a
    pivot means m is singular; only then are the n^2 cofactors computed.
    """
    r, c = shape(m)
    if r != c:
        raise ShapeError(f"adjugate of a non-square {r}x{c} matrix")
    n = r
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return _cofactor_adjugate(m)
        pivot_row = a[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1 :]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                row[k + 1 :] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pivot
    return tuple(tuple(sign * x for x in row[n:]) for row in a)


def _cofactor_adjugate(m: Mat) -> Mat:
    n = len(m)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple((-1) ** (i + j) * det(_drop(m, j, i)) for j in range(n))
        for i in range(n)
    )


def _det_from_adjugate(m: Mat, adj: Mat) -> int:
    """det(m) as row 0 of m times column 0 of adj(m), since m @ adj(m) == det(m) * I."""
    return sum(x * row[0] for x, row in zip(m[0], adj)) if m else 1


def is_unimodular(u: Mat) -> bool:
    """True iff `u` is square with determinant +1 or -1."""
    r, c = shape(u)
    if r != c:
        return False
    return abs(det(u)) == 1


def unimodular_inverse(u: Mat) -> Mat:
    """Exact integer inverse of a unimodular matrix."""
    adj = adjugate(u)
    d = _det_from_adjugate(u, adj)
    if abs(d) != 1:
        raise SingularityError("matrix is not unimodular, integer inverse undefined")
    if d == 1:
        return adj
    return tuple(tuple(-x for x in row) for row in adj)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf(a: Mat) -> tuple[Mat, Mat]:
    """Hermite decomposition a @ u = h_full with u unimodular.

    The top n x n block of `h_full` is lower triangular with positive
    diagonal and 0 <= h[i][j] < h[i][i] for j < i; rows below the top block
    carry the same column operations but are otherwise unconstrained. The
    decomposition is computed by integer column operations on the stacked
    matrix [a; I], whose lower block ends as u, so it requires every row
    prefix of `a` to have full rank (callers choose the row order).

    Returns:
        (h_full, u) with a @ u == h_full exactly.
    """
    return _hnf_cached(matrix(a))


@lru_cache(maxsize=MEMO_CACHE_SIZE)
def _hnf_cached(a: Mat) -> tuple[Mat, Mat]:
    m, n = shape(a)
    if n == 0 or m < n:
        raise ShapeError(f"hermite form needs an m x n matrix with m >= n >= 1, got {m}x{n}")
    work = [list(row) for row in a] + [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        if all(work[i][j] == 0 for j in range(i, n)):
            raise RankError(f"rows 0..{i} are linearly dependent")
        for j in range(i + 1, n):
            if work[i][j] == 0:
                continue
            piv, other = work[i][i], work[i][j]
            g, x, y = _xgcd(piv, other)
            p, qq = piv // g, other // g
            for row in work:
                ci, cj = row[i], row[j]
                row[i] = x * ci + y * cj
                row[j] = p * cj - qq * ci
        if work[i][i] < 0:
            for row in work:
                row[i] = -row[i]
        for j in range(i):
            qq = work[i][j] // work[i][i]
            if qq:
                for row in work:
                    row[j] -= qq * row[i]
    h_full = tuple(tuple(row) for row in work[:m])
    u = tuple(tuple(row) for row in work[m:])
    if mat_mul(a, u) != h_full:
        raise InvariantViolation("hermite decomposition readback failed")
    return h_full, u


def solve_rational(m: Mat, b) -> FracVec:
    """Exact rational solution x of m @ x == b for nonsingular integer m."""
    adj = adjugate(m)
    d = _det_from_adjugate(m, adj)
    if d == 0:
        raise SingularityError("cannot solve a singular system")
    return tuple(Fraction(sum(adj[i][j] * b[j] for j in range(len(b))), d) for i in range(len(b)))


def max_minors(a: Mat) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All n+1 maximal minors of an (n+1) x n matrix.

    Returns one (base, minor) pair per omitted row, where `base` is the
    ascending tuple of the n row indices forming the minor. Zero minors of
    degenerate bases are included.
    """
    m, n = shape(a)
    if m != n + 1:
        raise ShapeError(f"expected an (n+1) x n matrix, got {m}x{n}")
    out = []
    for omit in range(m):
        base = tuple(i for i in range(m) if i != omit)
        minor = det(tuple(a[i] for i in base))
        out.append((base, minor))
    return tuple(out)


def delta_value(a: Mat) -> int:
    """The largest absolute value among the maximal minors of `a`."""
    return max(abs(minor) for _, minor in max_minors(a))
