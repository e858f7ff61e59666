"""Simplex systems, affine unimodular maps, and an exact point-count oracle.

A simplex is given by n+1 inequalities A x <= b in n variables. The module
validates that a system really defines a bounded full-dimensional simplex,
computes its vertices and maximal minors exactly, and applies unimodular
coordinate changes. `apply_map` pins the direction convention: it returns
the preimage system. The normalization pipeline does not call it, but each
map it returns carries the normalized simplex onto its source, so
`apply_map(source, map)` gives the normalized system up to row order and
row scaling.
"""

from __future__ import annotations

import itertools
import math
from operator import neg
from typing import NamedTuple

from .errors import NotASimplexError, PreconditionError, ScaleExceededError, ShapeError
from .exact_linalg import (
    Mat,
    Vec,
    _adjugate_cached,
    dot,
    is_unimodular,
    mat_mul,
    mat_vec,
    matrix,
    unimodular_inverse,
    vector,
)

# Records are named tuples. A NamedTuple body cannot define __new__, so a
# record that checks its fields does so in the __new__ of a subclass of its
# field tuple; unpickling runs that __new__ too.
class _InequalitySystemFields(NamedTuple):
    n: int
    A: Mat
    b: Vec


class InequalitySystem(_InequalitySystemFields):
    """A candidate simplex {x : A x <= b} with A of shape (n+1) x n."""

    __slots__ = ()

    def __new__(cls, n: int, A, b):
        A = matrix(A)
        b = vector(b)
        if n < 1:
            raise ShapeError("dimension must be at least 1")
        if len(A) != n + 1 or any(len(row) != n for row in A):
            raise ShapeError(f"matrix must be {n + 1}x{n}")
        if len(b) != n + 1:
            raise ShapeError(f"right-hand side must have length {n + 1}")
        return super().__new__(cls, n, A, b)

    def rows(self):
        return tuple((self.A[i], self.b[i]) for i in range(self.n + 1))


class _AffineUnimodularMapFields(NamedTuple):
    U: Mat
    x0: Vec


class AffineUnimodularMap(_AffineUnimodularMapFields):
    """The affine map x -> U x + x0 with U unimodular and x0 integral."""

    __slots__ = ()

    def __new__(cls, U, x0):
        U = matrix(U)
        x0 = vector(x0)
        if not is_unimodular(U):
            raise PreconditionError("map matrix is not unimodular")
        if len(x0) != len(U):
            raise ShapeError("translation length does not match matrix size")
        return super().__new__(cls, U, x0)

    @classmethod
    def _trusted(cls, U: Mat, x0: Vec) -> AffineUnimodularMap:
        """Build from tuples known to hold a unimodular U and an x0 of matching length.

        Skips the `det` check of the public constructor; only results that are
        unimodular by construction come through here: `compose`, `inverse`,
        and `KeyStep.map`, whose U `hnf` checked once per distinct base block.
        """
        return _AffineUnimodularMapFields.__new__(cls, U, x0)

    @property
    def n(self) -> int:
        return len(self.U)

    def image(self, point: Point) -> Point:
        """The image of the point nums / d, (U nums + d x0) / d, as a reduced point (`reduced_point`)."""
        nums, d = point
        return reduced_point(tuple(ux + d * t for ux, t in zip(mat_vec(self.U, nums), self.x0)), d)


def compose(m2: AffineUnimodularMap, m1: AffineUnimodularMap) -> AffineUnimodularMap:
    """compose(m2, m1)(x) == m2(m1(x)); det(U2 U1) = det(U2) det(U1) = +-1, so it is not retaken."""
    if m2.n != m1.n:
        raise ShapeError("cannot compose maps of different dimensions")
    return AffineUnimodularMap._trusted(
        mat_mul(m2.U, m1.U), tuple(a + b for a, b in zip(mat_vec(m2.U, m1.x0), m2.x0))
    )


def inverse(m: AffineUnimodularMap) -> AffineUnimodularMap:
    """The inverse map; `unimodular_inverse` already raises unless |det U| = 1."""
    uinv = unimodular_inverse(m.U)
    return AffineUnimodularMap._trusted(uinv, tuple(-x for x in mat_vec(uinv, m.x0)))


def apply_map(sys: InequalitySystem, m: AffineUnimodularMap) -> InequalitySystem:
    """Preimage system of `sys` under `m`.

    x satisfies the returned system iff m(x) = U x + x0 satisfies `sys`;
    the output therefore defines the simplex m^-1(S). Algebraically the
    result is (A @ U, b - A @ x0).
    """
    if m.n != sys.n:
        raise ShapeError("map dimension does not match system dimension")
    return InequalitySystem(
        sys.n,
        mat_mul(sys.A, m.U),
        tuple(bi - ax for bi, ax in zip(sys.b, mat_vec(sys.A, m.x0))),
    )


Point = tuple[Vec, int]  # (numerators, denominator): the point numerators / denominator


def reduced_point(nums: Vec, den: int) -> Point:
    """The point nums / den as (numerators, denominator) in lowest terms with den > 0.

    The one definition of a vertex's integer form: `validate_simplex` stores
    its vertices through it, and `AffineUnimodularMap.image` reduces the
    images of points through it, so equal points compare equal. A point
    already in lowest terms is returned as it is.
    """
    g = math.gcd(*nums, den)
    if g == 1 and den > 0:
        return nums, den
    if den < 0:
        g = -g
    return tuple(x // g for x in nums), den // g


class SimplexMeta(NamedTuple):
    """Validation summary: delta, vertices (vertex i is opposite row i), maximal bases, minors.

    `points[i]` is vertex i as an exact integer point (numerators,
    denominator) in lowest terms with a positive denominator, taken from
    column i of the adjugate of [A | b].
    """

    delta: int
    points: tuple[Point, ...]
    max_det_bases: tuple[tuple[int, ...], ...]
    minors: tuple[int, ...]  # signed maximal minors of A, by omitted row


def validate_simplex(sys: InequalitySystem) -> SimplexMeta:
    """Check that the system defines a bounded, full-dimensional simplex.

    Every maximal minor must be nonzero and each basic solution must satisfy
    its omitted inequality strictly; together these force exactly n+1
    distinct vertices and a bounded interior.

    Everything is read off one (det, adjugate) pass over M = [A | b], the
    memo `_adjugate_cached`, which the rows of a built system reach without
    `matrix`'s re-check. Column i of adj(M) is orthogonal to every row of M
    but row i, so it is vertex i in homogeneous coordinates:
    v_i = -adj[0..n-1][i] / adj[n][i]. Its last entry is
    adj[n][i] = (-1)^(i+n) det(A without row i), and the slack of row i at
    v_i is det(M) / adj[n][i]. Each vertex is stored as that column,
    negated and put in lowest terms (`reduced_point`): integers throughout,
    one gcd per vertex.

    Raises:
        NotASimplexError: on a degenerate minor or a tight/violated omitted row.
    """
    n = sys.n
    det_m, adj = _adjugate_cached(tuple(row + (bi,) for row, bi in zip(sys.A, sys.b)))
    last = adj[n]
    # (-1)^(i+n) is -1 exactly when i + n is odd.
    minors = tuple(-x if (i + n) & 1 else x for i, x in enumerate(last))
    if 0 in minors:
        base = _omitting(minors.index(0), n)
        raise NotASimplexError(f"not a simplex (rank/degeneracy): zero minor at base {base}")
    for omit, x in enumerate(last):
        if det_m * x <= 0:
            raise NotASimplexError(
                f"empty or unbounded or lower-dimensional: row {omit} not strictly satisfied"
            )
    delta = max(map(abs, minors))
    points = tuple(reduced_point(tuple(map(neg, col[:n])), col[n]) for col in zip(*adj))
    max_bases = tuple(_omitting(i, n) for i, minor in enumerate(minors) if abs(minor) == delta)
    return SimplexMeta(delta=delta, points=points, max_det_bases=max_bases, minors=minors)


def _omitting(i: int, n: int) -> tuple[int, ...]:
    """The base of the rows 0..n other than row i, in ascending order."""
    return tuple(r for r in range(n + 1) if r != i)


# Largest bounding box, in integer points, that `count_integer_points_bruteforce` scans.
POINT_COUNT_CAP = 10_000_000


def count_integer_points_bruteforce(sys: InequalitySystem, meta: SimplexMeta | None = None) -> int:
    """Exact |S ∩ Z^n| by scanning the integer points of the bounding box.

    The box is derived from the exact vertices by integer floor and ceiling
    division; if it holds more than `POINT_COUNT_CAP` candidate points the
    scan is refused.
    A caller that already holds `meta = validate_simplex(sys)` passes it,
    and the simplex is not validated again.
    """
    if meta is None:
        meta = validate_simplex(sys)
    # Coordinate j of a vertex is nums[j] / den with den > 0; ceil and floor
    # are monotone, so the box bounds are the least ceiling and the largest floor.
    lo = [min(-(-nums[j] // den) for nums, den in meta.points) for j in range(sys.n)]
    hi = [max(nums[j] // den for nums, den in meta.points) for j in range(sys.n)]
    total = 1
    for l, h in zip(lo, hi):
        total *= max(0, h - l + 1)
    if total > POINT_COUNT_CAP:
        raise ScaleExceededError(f"oracle scale exceeded: {total} candidates > cap {POINT_COUNT_CAP}")
    count = 0
    rows = sys.rows()
    for point in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if all(dot(a, point) <= b0 for a, b0 in rows):
            count += 1
    return count
