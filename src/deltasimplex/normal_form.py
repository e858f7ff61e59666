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
from dataclasses import dataclass
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
    adjugate,
    det,
    dot,
    hnf,
    mat_vec,
    matrix,
    solve_rational,
    transpose,
    vector,
)
from .simplex_model import (
    AffineUnimodularMap,
    InequalitySystem,
    json_ints,
    validate_simplex,
)

NORMALIZED_FORMAT = "delta-simplex/normalized-v1"


@dataclass(frozen=True)
class NormalizedSystem:
    """A system in canonical block Hermite form, plus its delta."""

    n: int
    s: int
    k: int
    H: Mat
    h: Vec
    c: Vec
    c0: int
    delta: int

    def __post_init__(self):
        object.__setattr__(self, "H", matrix(self.H))
        object.__setattr__(self, "h", vector(self.h))
        object.__setattr__(self, "c", vector(self.c))
        if self.s + self.k != self.n:
            raise ShapeError("block sizes must add up to the dimension")
        if len(self.H) != self.n or any(len(row) != self.n for row in self.H):
            raise ShapeError("H must be n x n")
        if len(self.h) != self.n or len(self.c) != self.n:
            raise ShapeError("h and c must have length n")

    def full_matrix(self) -> Mat:
        return self.H + (self.c,)

    def full_rhs(self) -> Vec:
        return self.h + (self.c0,)

    def system(self) -> InequalitySystem:
        return InequalitySystem(self.n, self.full_matrix(), self.full_rhs())

    def B(self) -> Mat:
        return tuple(row[: self.s] for row in self.H[self.s :])

    def T(self) -> Mat:
        return tuple(row[self.s :] for row in self.H[self.s :])


def _primitive_row(row: Vec, rhs: int) -> tuple[Vec, int]:
    g = math.gcd(*row, rhs)
    if g == 0:
        raise InvalidSystemError("system contains an all-zero row")
    if g == 1:
        return row, rhs
    return tuple(x // g for x in row), rhs // g


def primitivize(sys: InequalitySystem) -> InequalitySystem:
    """Divide every row of (A | b) by the gcd of its n+1 entries."""
    rows = []
    rhs = []
    for a, b0 in sys.rows():
        ra, rb = _primitive_row(a, b0)
        rows.append(ra)
        rhs.append(rb)
    return InequalitySystem(sys.n, rows, rhs)


def is_hnf_matrix(m: Mat) -> bool:
    """Square, lower triangular, positive diagonal, rows reduced mod the diagonal."""
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    for i in range(n):
        if m[i][i] <= 0:
            return False
        for j in range(n):
            if j > i and m[i][j] != 0:
                return False
            if j < i and not 0 <= m[i][j] < m[i][i]:
                return False
    return True


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
    """`reduce_rhs` for a caller that has already checked that H is in Hermite form."""
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
    translation that the form's map is built from (`leg`); row i of the
    form came from source row row_src[i]. `form()` and `map()` build the
    validated `NormalizedSystem` and its map. Fields are read by name.

    An immutable named tuple rather than a frozen dataclass: the search
    makes one per key step, and a named tuple is built about five times
    faster (0.6 against 3.2 us for these 11 fields, CPython 3.11 on a
    2-vCPU Linux VM).
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

    @property
    def leg(self) -> tuple[Mat, Vec]:
        """(U, x0): all that the form's map is built from (`leg_map`)."""
        return self.U, self.x0

    def form(self) -> NormalizedSystem:
        """The `NormalizedSystem`, validated; key_tuple of it equals `key`."""
        ns = NormalizedSystem(
            n=self.n, s=self.s, k=self.n - self.s, H=self.H, h=self.h, c=self.c, c0=self.c0, delta=self.delta
        )
        ok, violated = validate_normalized(ns)
        if not ok:
            raise InvariantViolation(f"normalization produced an invalid system: {violated}")
        return ns

    def map(self) -> AffineUnimodularMap:
        """The map carrying the form onto its source."""
        return leg_map(self.leg)


def key_step(prim: InequalitySystem, base: tuple[int, ...], delta: int) -> KeyStep:
    """Key step of `_normalize_primitive`: the canonical key and everything the form and map need.

    Runs the Hermite elimination, the coordinate permutation and the
    right-hand-side reduction, with their own checks, but builds no
    `NormalizedSystem`, validation or map; the returned `KeyStep` builds
    those on demand.
    """
    n = prim.n
    omitted = next(i for i in range(n + 1) if i not in base)

    # Base block to Hermite form: A_base @ u == h_mat, so the coordinate
    # change x -> u x takes it there; the omitted row rides along as c.
    h_mat, u = hnf(tuple(prim.A[i] for i in base))
    a_omitted = prim.A[omitted]
    c = [sum(a_omitted[i] * u[i][j] for i in range(n)) for j in range(n)]

    # One coordinate permutation, applied to rows and columns of H alike:
    # unit-diagonal coordinates in front, sorted by the canonical (B column,
    # c entry) tie-break; the non-unit coordinates keep their relative order
    # so the T block stays lower triangular.
    unit = [i for i in range(n) if h_mat[i][i] == 1]
    rest = [i for i in range(n) if h_mat[i][i] != 1]
    unit.sort(key=lambda j: (tuple(h_mat[r][j] for r in rest), c[j]))
    sigma = unit + rest
    h_mat = tuple(tuple(h_mat[a][b] for b in sigma) for a in sigma)
    c = tuple(c[j] for j in sigma)
    u = tuple(tuple(row[j] for j in sigma) for row in u)
    row_src = tuple(base[a] for a in sigma) + (omitted,)

    # Right-hand-side reduction by the unique integer translation.
    h, x0 = reduce_rhs(h_mat, [prim.b[i] for i in row_src[:n]])
    c0 = prim.b[omitted] - sum(ci * xi for ci, xi in zip(c, x0))

    key = _flat_key(n, delta, h_mat + (c,), h + (c0,))
    return KeyStep(key, n, delta, len(unit), h_mat, h, c, c0, u, x0, row_src)


def leg_map(leg: tuple[Mat, Vec]) -> AffineUnimodularMap:
    """The map x -> U x + U x0 of a key step's leg (U, x0), carrying its form onto its source."""
    u, x0 = leg
    return AffineUnimodularMap(u, mat_vec(u, x0))


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
    base = tuple(sorted(int(i) for i in base))
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

    if not is_hnf_matrix(h_mat):
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
    """w = -adj(H)^T c; for det(H) > 0, c lies in paral(-H^T) iff every w_i is in (0, det H]."""
    return tuple(-dot(col, c) for col in transpose(adjugate(h_mat)))


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


def parse_canonical_key(key: str) -> NormalizedSystem:
    """Rebuild the exact normalized system encoded by a canonical key."""
    n_text, delta_text, entries_text = key.split(":")
    n = int(n_text)
    delta = int(delta_text)
    flat = [int(x) for x in entries_text.split(",")]
    if len(flat) != (n + 1) * (n + 1):
        raise PreconditionError("canonical key has the wrong number of entries")
    rows = [flat[i * (n + 1) : (i + 1) * (n + 1)] for i in range(n + 1)]
    h_mat = matrix(row[:n] for row in rows[:n])
    s = sum(1 for i in range(n) if h_mat[i][i] == 1)
    return NormalizedSystem(
        n=n,
        s=s,
        k=n - s,
        H=h_mat,
        h=tuple(row[n] for row in rows[:n]),
        c=tuple(rows[n][:n]),
        c0=rows[n][n],
        delta=delta,
    )


def normalized_to_dict(ns: NormalizedSystem) -> dict:
    return {
        "format": NORMALIZED_FORMAT,
        "n": ns.n,
        "s": ns.s,
        "k": ns.k,
        "delta": ns.delta,
        "H": [list(row) for row in ns.H],
        "h": list(ns.h),
        "c": list(ns.c),
        "c0": ns.c0,
    }


def normalized_from_dict(data: dict) -> NormalizedSystem:
    if not isinstance(data, dict):
        raise PreconditionError("a normalized system must be a JSON object")
    if data.get("format") != NORMALIZED_FORMAT:
        raise PreconditionError(f"expected format {NORMALIZED_FORMAT!r}, got {data.get('format')!r}")
    return normalized_fields_from_dict(data)


def normalized_fields_from_dict(data: dict) -> NormalizedSystem:
    """Parse the fields written by `normalized_to_dict`, ignoring the format tag.

    Shared by every JSON format that embeds a normalized system. Missing
    keys and non-integer entries raise PreconditionError.
    """
    return NormalizedSystem(
        n=json_ints(data, "n"),
        s=json_ints(data, "s"),
        k=json_ints(data, "k"),
        H=json_ints(data, "H", 2),
        h=json_ints(data, "h", 1),
        c=json_ints(data, "c", 1),
        c0=json_ints(data, "c0"),
        delta=json_ints(data, "delta"),
    )


def opposite_vertex(ns: NormalizedSystem):
    """The vertex opposite the c-row facet, v = H^-1 h, as exact rationals."""
    return solve_rational(ns.H, ns.h)
