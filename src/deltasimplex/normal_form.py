"""Canonical (normalized) defining systems for Delta-modular simplices.

A normalized system is the block Hermite form

    [ I_s  0 ]           [ 0 ]
    [  B   T ]  x  <=    [ h ],      c^T x <= c0
with
  1. the (n+1) x n matrix in Hermite form and det(H) equal to the delta of
     the whole matrix,
  2. T lower triangular with diagonal entries >= 2 (so k <= log2(delta)),
  3. 0 <= h_i < H_ii,
  4. every row of (A | b) primitive,
  5. c inside the half-open fundamental parallelepiped of -H^T,
  6. all matrix entries bounded by delta in absolute value.

Conditions 5 and 6 follow from the others for genuine simplices; the
validator still checks them so any violation flags a bug immediately.

On top of the classical form this module pins one extra tie-break: the
identity-block coordinates are sorted by (column of B, entry of c). The
pair moves as a unit under any permutation of identity-block coordinates,
so the sort makes every such coordinate permutation redundant and the form
of each ordered base unique. It does not make the order of identity-block
rows in the elimination redundant (see the `equivalence` module).
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    InvalidSystemError,
    InvariantViolation,
    PreconditionError,
    ShapeError,
)
from .exact_linalg import (
    Mat,
    Vec,
    _adjugate_cached,
    _hnf_cached,
    det,
    dot,
    is_hnf_matrix,
    mat_vec,
    matrix,
    transpose,
    vector,
)
from .simplex_model import (
    AffineUnimodularMap,
    InequalitySystem,
    validate_simplex,
)


class _NormalizedSystemFields(NamedTuple):
    n: int
    s: int
    k: int
    H: Mat
    h: Vec
    c: Vec
    c0: int
    delta: int


class NormalizedSystem(_NormalizedSystemFields):
    """A system in canonical block Hermite form, plus its delta."""

    __slots__ = ()

    def __new__(cls, n: int, s: int, k: int, H, h, c, c0: int, delta: int):
        H = matrix(H)
        h = vector(h)
        c = vector(c)
        if n < 1:
            raise ShapeError("dimension must be at least 1")
        if s < 0 or k < 0:
            raise ShapeError("block sizes must be non-negative")
        if s + k != n:
            raise ShapeError("block sizes must add up to the dimension")
        if len(H) != n or any(len(row) != n for row in H):
            raise ShapeError("H must be n x n")
        if len(h) != n or len(c) != n:
            raise ShapeError("h and c must have length n")
        return super().__new__(cls, n, s, k, H, h, c, c0, delta)

    @classmethod
    def _trusted(cls, n: int, s: int, k: int, H: Mat, h: Vec, c: Vec, c0: int, delta: int) -> NormalizedSystem:
        """Build from int tuples of the right shapes, skipping the public constructor's checks.

        Only `KeyStep.form` comes through here, and it runs the full
        `validate_normalized` on the result, so every form is still checked.
        """
        return _NormalizedSystemFields.__new__(cls, n, s, k, H, h, c, c0, delta)

    def full_matrix(self) -> Mat:
        return self.H + (self.c,)

    def full_rhs(self) -> Vec:
        return self.h + (self.c0,)

    def system(self) -> InequalitySystem:
        return InequalitySystem(self.n, self.full_matrix(), self.full_rhs())


def _primitive_row(row: Vec, rhs: int) -> tuple[Vec, int]:
    g = math.gcd(*row, rhs)
    if g == 0:
        raise InvalidSystemError("system contains an all-zero row")
    if g == 1:
        return row, rhs
    return tuple(x // g for x in row), rhs // g


def primitivize(sys: InequalitySystem) -> InequalitySystem:
    """Divide every row of (A | b) by the gcd of its n+1 entries.

    A system whose rows are all primitive already is returned as it is.
    """
    if all(math.gcd(*a, b0) == 1 for a, b0 in zip(sys.A, sys.b)):
        return sys
    rows, rhs = zip(*(_primitive_row(a, b0) for a, b0 in zip(sys.A, sys.b)))
    return InequalitySystem(sys.n, rows, rhs)


def reduce_rhs(h_mat: Mat, b) -> tuple[Vec, Vec]:
    """Unique translation taking H x <= b to H x <= h with 0 <= h_i < H_ii.

    Returns (h, x0) with h == b - H @ x0. Working down the rows, each x0
    coordinate is forced by the triangular structure, which is what makes
    the translation unique.
    """
    if not is_hnf_matrix(h_mat):
        raise PreconditionError("matrix is not in Hermite form")
    return _reduce_hnf_rhs(h_mat, b)


def _reduce_hnf_rhs(h_mat: Mat, b) -> tuple[Vec, Vec]:
    """`reduce_rhs` for a caller that has already checked that H is in Hermite form.

    For b in H Z^n the residue h is 0 and x0 = H^-1 b: the integral
    triangular solve that `Cone.minimum` rebuilds its witness with.
    """
    n = len(h_mat)
    cur = list(b)
    x0 = [0] * n
    for i in range(n):
        q = cur[i] // h_mat[i][i]
        x0[i] = q
        if q:
            for r in range(i, n):
                cur[r] -= q * h_mat[r][i]
    return tuple(cur), tuple(x0)


def _normalize_primitive(prim: InequalitySystem, base: tuple[int, ...], delta: int):
    """Normalization pipeline for a primitive system and an ordered maximal base.

    `base` lists n row indices in the order the Hermite elimination takes
    them, so one system renormalizes under any row permutation of its base
    block. Trusted entry point: the caller guarantees `prim` is primitive,
    defines a simplex, and that |det| on `base` equals `delta`.
    """
    step = key_step(prim, base, delta)
    return step.form(), step.map(), step.row_src


class KeyStep(NamedTuple):
    """One normalization of a primitive system over an ordered base, before anything is built.

    `key` is the canonical key tuple of the form; n, delta, s, H, h, c and
    c0 are the form's fields; U and x0 are the coordinate change and the
    translation that the form's map is built from; row i of the form came
    from source row row_src[i]. `form()` and `map()` build the validated
    `NormalizedSystem` and its map. Fields are read by name.

    A named tuple, like every value record of the package: the search makes
    one per key step, and a named tuple is built about five times faster
    than a frozen dataclass (0.6 against 3.2 us for these 11 fields, CPython
    3.11 on a 2-vCPU Linux VM), and defining it at import costs no
    `dataclasses` module.
    """

    key: tuple[int, ...]
    n: int
    delta: int
    s: int
    H: Mat
    h: Vec
    c: Vec
    c0: int
    U: Mat
    x0: Vec
    row_src: tuple[int, ...]

    def form(self) -> NormalizedSystem:
        """The `NormalizedSystem`, validated; key_tuple of it equals `key`."""
        ns = NormalizedSystem._trusted(self.n, self.s, self.n - self.s, self.H, self.h, self.c, self.c0, self.delta)
        ok, violated = validate_normalized(ns)
        if not ok:
            raise InvariantViolation(f"normalization produced an invalid system: {violated}")
        return ns

    def map(self) -> AffineUnimodularMap:
        """The map x -> U x + U x0 carrying the form onto its source; `hnf` checked |det U| = 1."""
        return AffineUnimodularMap._trusted(self.U, mat_vec(self.U, self.x0))


def key_step(prim: InequalitySystem, base: tuple[int, ...], delta: int) -> KeyStep:
    """Key step of `_normalize_primitive`: the canonical key and everything the form and map need.

    Runs the Hermite elimination, the coordinate permutation and the
    right-hand-side reduction, but builds no `NormalizedSystem`, validation
    or map; the returned `KeyStep` builds those on demand.

    Nothing here re-checks what `hnf` checked once per distinct base block:
    H in Hermite form and |det U| = 1. The base block is rows of `prim`,
    whose constructor checked them, so it goes to the memo `_hnf_cached`
    without `matrix`'s pass over its entries. The permutation sigma keeps
    both. A unit-diagonal row of a Hermite matrix is e_i (its entries left
    of the diagonal are reduced mod 1), so moving the unit coordinates
    first, rows and columns alike, leaves those rows e_i; a non-unit row
    keeps its diagonal and meets, left of it, only its old left entries or
    zeros from right of its old diagonal, since the non-unit coordinates
    keep their order. So H stays lower triangular and reduced, and
    `_reduce_hnf_rhs` runs unchecked. Permuting the columns of U only flips
    the sign of its determinant. `KeyStep.form()` validates every form it
    builds.
    """
    n = prim.n
    omitted = next(i for i in range(n + 1) if i not in base)

    # Base block to Hermite form: A_base @ u == h_mat, so the coordinate
    # change x -> u x takes it there; the omitted row rides along as c.
    h_mat, u = _hnf_cached(tuple(prim.A[i] for i in base))
    c = mat_vec(transpose(u), prim.A[omitted])

    # One coordinate permutation, applied to rows and columns of H alike:
    # unit-diagonal coordinates in front, sorted by the canonical (B column,
    # c entry) tie-break; the non-unit coordinates keep their relative order
    # so the T block stays lower triangular. The identity leaves H, c and U
    # as they are; any other sigma moves at least two of n >= 2 coordinates,
    # so one itemgetter of it returns tuples.
    unit = [i for i in range(n) if h_mat[i][i] == 1]
    rest = [i for i in range(n) if h_mat[i][i] != 1]
    unit.sort(key=lambda j: (tuple(h_mat[r][j] for r in rest), c[j]))
    sigma = unit + rest
    if sigma == list(range(n)):
        row_src = tuple(base) + (omitted,)
    else:
        pick = itemgetter(*sigma)
        h_mat = tuple(map(pick, pick(h_mat)))
        c = pick(c)
        u = tuple(map(pick, u))
        row_src = pick(base) + (omitted,)

    # Right-hand-side reduction by the unique integer translation.
    h, x0 = _reduce_hnf_rhs(h_mat, [prim.b[i] for i in row_src[:n]])
    c0 = prim.b[omitted] - dot(c, x0)

    key = _flat_key(n, delta, h_mat + (c,), h + (c0,))
    return KeyStep(key, n, delta, len(unit), h_mat, h, c, c0, u, x0, row_src)


def normalize(sys: InequalitySystem, base) -> tuple[NormalizedSystem, AffineUnimodularMap, tuple[int, ...]]:
    """Normalize a simplex system over a base of maximal |det|.

    The pipeline primitivizes the rows, brings the base block to Hermite
    form by a unimodular coordinate change U, renames coordinates by one
    permutation (unit-diagonal coordinates first, in (B column, c entry)
    tie-break order), and reduces the right-hand side by the unique integer
    translation x0. The returned map is built once from those pieces,
    x -> U' x + U' x0 with U' the permuted U. Row scaling is quotiented out
    first, so base maximality refers to the primitive representation.

    Returns:
        (ns, map, row_perm) where `map` carries the normalized simplex onto
        the input simplex: apply_map(sys, map) equals the normalized system
        up to the row permutation `row_perm` and per-row primitivization
        (row i of the output came from input row row_perm[i]).
    """
    prim = primitivize(sys)
    meta = validate_simplex(prim)
    # `vector` rejects an entry that is not an int (0.9, True) instead of truncating it.
    base = tuple(sorted(vector(base)))
    if len(base) != sys.n or len(set(base)) != sys.n or not all(0 <= i <= sys.n for i in base):
        raise PreconditionError(f"base must be {sys.n} distinct row indices in 0..{sys.n}")
    if base not in meta.max_det_bases:
        raise PreconditionError(
            f"base {base} does not attain the maximal minor; valid bases: {meta.max_det_bases}"
        )
    return _normalize_primitive(prim, base, meta.delta)


def validate_normalized(ns: NormalizedSystem) -> tuple[bool, tuple[str, ...]]:
    """Check all normalized-form conditions plus the canonical tie-break.

    Returns (ok, violated) where `violated` lists diagnostic labels. Delta
    of the full (n+1) x n matrix is recomputed and must equal det(H).
    """
    bad = []
    n, s, k = ns.n, ns.s, ns.k
    h_mat, h, c = ns.H, ns.h, ns.c

    # A Hermite matrix is lower triangular, so its determinant is the
    # product of its diagonal; otherwise Bareiss computes it.
    if is_hnf_matrix(h_mat):
        det_h = math.prod(h_mat[i][i] for i in range(n))
    else:
        bad.append("hnf-form")
        det_h = det(h_mat)
    if ns.delta <= 0 or det_h != ns.delta:
        bad.append("determinant")
    # The maximal minors of [H; c] are det(H) and -w_i (c in place of row i).
    w = paral_weights(h_mat, c)
    full = ns.full_matrix()
    if max(abs(det_h), *map(abs, w)) != ns.delta:
        bad.append("delta-of-full-matrix")

    for i in range(s):
        if any(h_mat[i][j] != (1 if j == i else 0) for j in range(n)):
            bad.append("identity-block")
            break
    if any(h_mat[s + i][s + i] < 2 for i in range(k)):
        bad.append("t-diagonal")
    if 2**k > ns.delta:
        bad.append("k-bound")
    cols = [tuple(h_mat[s + i][j] for i in range(k)) for j in range(s)]
    if any(cols[j] > cols[j + 1] for j in range(s - 1)):
        bad.append("b-columns-sorted")
    pairs = [(cols[j], c[j]) for j in range(s)]
    if any(pairs[j] > pairs[j + 1] for j in range(s - 1)):
        bad.append("tie-break")

    if any(not 0 <= h[i] < h_mat[i][i] for i in range(n)):
        bad.append("rhs-range")

    rhs = ns.full_rhs()
    if any(math.gcd(*row, b0) != 1 for row, b0 in zip(full, rhs)):
        bad.append("row-gcd")

    if any(not 0 < wi <= ns.delta for wi in w):
        bad.append("paral-membership")

    if any(abs(x) > ns.delta for row in full for x in row):
        bad.append("entry-bound")

    return (not bad, tuple(bad))


def paral_weights(h_mat: Mat, c) -> Vec:
    """w = -adj(H)^T c; for det(H) > 0, c lies in paral(-H^T) iff every w_i is in (0, det H].

    H is a checked matrix (a form's, a block's or a memo's output), so it
    goes to the memo `_adjugate_cached` without `matrix`'s re-check.
    """
    return tuple(-dot(col, c) for col in transpose(_adjugate_cached(h_mat)[1]))


def key_tuple(ns: NormalizedSystem) -> tuple[int, ...]:
    """Flattened integer sequence used as the total order on canonical forms."""
    return _flat_key(ns.n, ns.delta, ns.full_matrix(), ns.full_rhs())


def _flat_key(n: int, delta: int, rows: Mat, rhs: Vec) -> tuple[int, ...]:
    """(n, delta, entries of (A | b) row by row): the one definition of the key."""
    flat = []
    for row, b0 in zip(rows, rhs):
        flat.extend(row)
        flat.append(b0)
    return (n, delta, *flat)


def canonical_key(ns: NormalizedSystem) -> str:
    """Injective text key: n, delta, then the flattened (A | b) entries."""
    t = key_tuple(ns)
    return f"{t[0]}:{t[1]}:" + ",".join(str(x) for x in t[2:])
