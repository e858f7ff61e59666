"""Exact integer and rational linear algebra over immutable tuple matrices.

Matrices are tuples of row tuples of Python ints and vectors are tuples of
ints, so every value is hashable and safe to share between workers. All
arithmetic is exact: determinants use fraction-free elimination, rational
solves return `fractions.Fraction` entries in lowest terms, and nothing in
this module ever touches floating point.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .errors import InvariantViolation, PreconditionError, RankError, ShapeError, SingularityError

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]
# A string argument, so that building the alias needs no `fractions` import:
# only `solve_rational` makes Fractions, and it imports the module when called.
FracVec = tuple["Fraction", ...]

# Entry bound of every memo cache in the package. The largest working set in
# the benchmark cells is about 1,000 entries. Cones of `corner_ilp` are not
# memoized: each block of the enumeration keeps its own.
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
    return tuple(zip(*m))


def mat_mul(a: Mat, b: Mat) -> Mat:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: Mat, x) -> tuple:
    ra, ca = shape(a)
    if ca != len(x):
        raise ShapeError(f"cannot apply {ra}x{ca} to a vector of length {len(x)}")
    return tuple(sum(map(mul, row, x)) for row in a)


def dot(u, v):
    if len(u) != len(v):
        raise ShapeError("dot product of vectors with different lengths")
    return sum(map(mul, u, v))


def det(m: Mat) -> int:
    """Exact determinant: the last pivot of `_bareiss` times the sign of its row swaps."""
    r, c = shape(m)
    if r != c:
        raise ShapeError(f"determinant of a non-square {r}x{c} matrix")
    return _bareiss(m)[0]


def _drop(m: Mat, row: int, col: int) -> Mat:
    return tuple(
        tuple(x for j, x in enumerate(r) if j != col)
        for i, r in enumerate(m)
        if i != row
    )


def adjugate(m: Mat) -> Mat:
    """Adjugate matrix: m @ adjugate(m) == det(m) * I, also for singular m."""
    return _adjugate_cached(matrix(m))[1]


@lru_cache(maxsize=MEMO_CACHE_SIZE)
def _adjugate_cached(m: Mat) -> tuple[int, Mat]:
    """(det(m), adj(m)) from `_bareiss`; only a singular m computes its n^2 cofactors.

    The trusted entry: the caller passes a tuple of equal-length int tuples,
    as `matrix` returns, or rows of a system or form already built from one.
    """
    r, c = shape(m)
    if r != c:
        raise ShapeError(f"adjugate of a non-square {r}x{c} matrix")
    d, adj = _bareiss(m)
    return d, (_cofactor_adjugate(m) if adj is None else adj)


def _bareiss(m: Mat) -> tuple[int, Mat | None]:
    """(det(m), adj(m)) by one fraction-free (Bareiss) Gauss-Jordan pass on [m | I], in an n x n tableau.

    After step k every entry of [m | I] is, up to sign, a (k+1) x (k+1)
    minor, so each row operation divides exactly by the previous pivot.
    With P the row swaps made, the left block ends as det(P m) * I and the
    right block as det(P m) * m^-1 = sign(P) * adj(m). The last pivot is
    det(P m), so det(m) = sign(P) times it; the empty matrix makes no step
    and gets det 1 and adj (). A column without a pivot means m is
    singular: the pass stops there and returns (0, None).

    The tableau holds the right block's columns 0..k-1 and the left block's
    columns k..n-1, and step k runs the row operation on all n of them.
    After step k, column k of the left block is p e_k, which nothing reads
    again, and column k of the right block, `prev * e_k` before the step,
    is -f in each row i != k (the row operation on 0 and `prev`) and `prev`
    in row k; the step writes the second in place of the first. The right
    block's columns past k are unit columns that are never stored, so a row
    swap of rows k and i, which should swap their entries, swaps columns k
    and i of the right block instead. The right block so ends as that of
    P m times those column swaps, and they are undone in reverse order.
    """
    n = len(m)
    a = [list(row) for row in m]
    swaps = []
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    swaps.append((k, i))
                    sign = -sign
                    break
            else:
                return 0, None
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                row[:] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
                row[k] = -f
        pivot_row[k] = prev
        prev = pivot
    for k, i in reversed(swaps):
        for row in a:
            row[k], row[i] = row[i], row[k]
    if sign < 0:
        return -prev, tuple(tuple(-x for x in row) for row in a)
    return prev, tuple(map(tuple, a))


def _cofactor_adjugate(m: Mat) -> Mat:
    n = len(m)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple((-1) ** (i + j) * det(_drop(m, j, i)) for j in range(n))
        for i in range(n)
    )


def is_unimodular(u: Mat) -> bool:
    """True iff `u` is square with determinant +1 or -1."""
    r, c = shape(u)
    if r != c:
        return False
    return abs(det(u)) == 1


def unimodular_inverse(u: Mat) -> Mat:
    """Exact integer inverse of a unimodular matrix."""
    d, adj = _adjugate_cached(matrix(u))
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

    Each distinct `a` is eliminated once (an LRU memo, `_hnf_cached`) and its
    result checked there: the readback a @ u == h_full, the Hermite shape of
    the top block (`is_hnf_matrix`) and |det u| = 1, read off the
    elimination. Callers of the memo trust all three and re-check none.
    `normal_form.key_step` calls the memo directly, on rows of a built
    system, which `matrix` checked when the system was built.

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
    # det(u) as the product of the column operations' determinants: x p + y qq
    # per 2 x 2 step (1 for a Bezout-exact _xgcd), -1 per negation, 1 per shear.
    det_u = 1
    for i in range(n):
        if all(work[i][j] == 0 for j in range(i, n)):
            raise RankError(f"rows 0..{i} are linearly dependent")
        for j in range(i + 1, n):
            if work[i][j] == 0:
                continue
            piv, other = work[i][i], work[i][j]
            g, x, y = _xgcd(piv, other)
            p, qq = piv // g, other // g
            det_u *= x * p + y * qq
            for row in work:
                ci, cj = row[i], row[j]
                row[i] = x * ci + y * cj
                row[j] = p * cj - qq * ci
        if work[i][i] < 0:
            det_u = -det_u
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
    if not is_hnf_matrix(h_full[:n]):
        raise InvariantViolation("hermite elimination left its top block out of Hermite form")
    if abs(det_u) != 1:
        raise InvariantViolation(f"hermite transform has determinant {det_u}, not +-1")
    return h_full, u


def is_hnf_matrix(m: Mat) -> bool:
    """Square, lower triangular, positive diagonal, rows reduced mod the diagonal."""
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    for i, row in enumerate(m):
        d = row[i]
        if d <= 0 or any(row[i + 1 :]) or not all(0 <= x < d for x in row[:i]):
            return False
    return True


def solve_rational(m: Mat, b) -> FracVec:
    """Exact rational solution x of m @ x == b for nonsingular integer m."""
    from fractions import Fraction

    d, adj = _adjugate_cached(matrix(m))
    if d == 0:
        raise SingularityError("cannot solve a singular system")
    return tuple(Fraction(x, d) for x in mat_vec(adj, b))

