"""Generation of all normalized candidates for the two simplex families.

The generator walks divisor tuples -> lower-triangular blocks T -> sorted
column multisets B -> reduced right-hand sides h -> parallelepiped vectors c
-> admissible c0 values, and emits verified normalized systems tagged
"empty" (no integer points at all) or "lattice_empty" (integer vertices and
no other integer points). The stream may contain unimodular-equivalent
duplicates; removing those is the equivalence module's job.

The family is fixed by h alone (h = 0: lattice, otherwise empty), so a
family that was not asked for costs no cone minimum. The empty family loops
over every h != 0, every c of `enumerate_c` and every c0 of its admissible
range. The lattice family is one closed-form step per block: H fixes the
only possible (c, c0), and one cone minimum decides it (proof in
`candidates_for_block`). Both end in one record builder, which runs the
shared checks (gcd, normalized form, simplex) and then the lattice-only
facet count.

Candidates whose system has a row with gcd > 1 are skipped rather than
repaired: the class they describe is produced by the run with its true,
smaller delta.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

from .corner_ilp import (
    _corner_from_table,
    _scaled_weights,
    corner_minimum_excluding_vertex,
    count_minimum_attainers,
    path_table,
)
from .errors import InvariantViolation, NotASimplexError, PreconditionError
from .exact_linalg import Mat, Vec, adjugate, det, dot, matrix
from .normal_form import NormalizedSystem, validate_normalized
from .simplex_model import validate_simplex

logger = logging.getLogger(__name__)

FAMILY_EMPTY = "empty"
FAMILY_LATTICE = "lattice_empty"


@dataclass(frozen=True)
class HnfBlock:
    """One enumerated block matrix H = [[I_s, 0], [B, T]] with provenance indices."""

    s: int
    k: int
    diag: Vec
    H: Mat
    tuple_index: int
    t_index: int
    b_index: int


@dataclass(frozen=True)
class CandidateRecord:
    ns: NormalizedSystem
    family: str
    provenance: dict = field(compare=False)

    def system(self):
        return self.ns.system()


@dataclass(frozen=True)
class EmptyRange:
    """Admissible c0 interval [l_star, f_star - 1] for the non-lattice case."""

    l_star: int
    f_star: int


def divisor_tuples(delta: int) -> tuple[Vec, ...]:
    """All ordered tuples of integers >= 2 with product `delta`.

    The empty tuple is included exactly when delta == 1. Tuples come out in
    depth-first order with divisors ascending at each level.
    """
    if delta < 1:
        raise PreconditionError("delta must be a positive integer")
    out: list[Vec] = []

    def descend(prefix: list[int], remaining: int) -> None:
        if remaining == 1:
            out.append(tuple(prefix))
            return
        for d in range(2, remaining + 1):
            if remaining % d == 0:
                prefix.append(d)
                descend(prefix, remaining // d)
                prefix.pop()

    descend([], delta)
    return tuple(out)


def _lower_triangular_fill(diag: Vec):
    """All lower-triangular matrices with the given diagonal, entries reduced row-wise."""
    k = len(diag)
    positions = [(i, j) for i in range(k) for j in range(i)]
    for values in itertools.product(*(range(diag[i]) for i, _ in positions)):
        t = [[0] * k for _ in range(k)]
        for i in range(k):
            t[i][i] = diag[i]
        for (i, j), val in zip(positions, values):
            t[i][j] = val
        yield matrix(t)


def _assemble_block(s: int, k: int, b: Mat, t: Mat) -> Mat:
    n = s + k
    rows = [tuple(1 if j == i else 0 for j in range(n)) for i in range(s)]
    for i in range(k):
        rows.append(tuple(b[i]) + tuple(t[i]))
    return matrix(rows)


def enumerate_H(delta: int, n: int):
    """Yield every block Hermite matrix with determinant `delta` in dimension `n`.

    For each divisor tuple (the diagonal of T) this enumerates every reduced
    lower-triangular T and every B whose columns are drawn from the box
    {0 <= x_i < T_ii} and sorted ascending, i.e. the column multisets.
    """
    if n < 1:
        raise PreconditionError("dimension must be at least 1")
    for tuple_index, diag in enumerate(divisor_tuples(delta)):
        k = len(diag)
        if k > n:
            continue
        s = n - k
        box = tuple(itertools.product(*(range(d) for d in diag)))
        for t_index, t in enumerate(_lower_triangular_fill(diag)):
            for b_index, cols in enumerate(itertools.combinations_with_replacement(box, s)):
                b = matrix(tuple(col[i] for col in cols) for i in range(k))
                yield HnfBlock(
                    s=s,
                    k=k,
                    diag=diag,
                    H=_assemble_block(s, k, b, t),
                    tuple_index=tuple_index,
                    t_index=t_index,
                    b_index=b_index,
                )


def enumerate_h(h_mat: Mat) -> tuple[Vec, ...]:
    """All reduced right-hand sides 0 <= h_i < H_ii; exactly det(H) of them."""
    n = len(h_mat)
    return tuple(itertools.product(*(range(h_mat[i][i]) for i in range(n))))


def enumerate_c(h_mat: Mat) -> tuple[Vec, ...]:
    """All integer c with -H^-T c in the half-open box (0, 1]^n.

    Back-substitution over the upper-triangular H^T, from the last
    coordinate upward: at each level the partial solution pins c_i to an
    interval of length H_ii, so exactly det(H) vectors come out.

    The descent runs on T = D t with D = det(H) and t = -H^-T c, which is
    integral (it is `paral_weights(H, c)`), so every bound is an integer
    floor division and every new T_i an exact one. For a lower-triangular
    H a remainder cannot occur; one raises InvariantViolation.
    """
    n = len(h_mat)
    d = det(h_mat)
    out: list[Vec] = []
    t_vals = [0] * n  # D * t, filled from the last coordinate up
    c_vals = [0] * n

    def descend(i: int) -> None:
        if i < 0:
            out.append(tuple(c_vals))
            return
        h_ii = h_mat[i][i]
        shift = sum(h_mat[j][i] * t_vals[j] for j in range(i + 1, n))  # D * (partial sum)
        # c_i ranges over the integers in [(-shift - H_ii D) / D, -shift / D).
        first = -((shift + h_ii * d) // d)
        last = -(shift // d) - 1
        for ci in range(first, last + 1):
            t_i, rem = divmod(-ci * d - shift, h_ii)
            if rem:
                raise InvariantViolation(f"det(H) * t_{i} is not integral")
            t_vals[i] = t_i
            c_vals[i] = ci
            descend(i - 1)

    descend(n - 1)
    return tuple(out)


def c0_candidates(h_mat: Mat, h, c) -> EmptyRange:
    """The admissible c0 range of the empty family for a fixed (H, h, c) triple.

    h must be reduced and nonzero, so the opposite vertex v = H^-1 h is
    fractional. Every c0 in [l_star, f_star - 1] then gives an empty
    simplex, where l_star is the least integer strictly above c^T v and
    f_star the cone minimum; the range may be empty. With w the
    `paral_weights` of (H, c), c^T v = -(w^T h) / det(H), and the cone
    minimum comes from one path table read of (H, c), made only when
    w^T h > det(H). Otherwise 0 < w^T h <= det(H) (w > 0, h >= 0, h != 0),
    so l_star = 0, and f_star = 0 too: 0 lies in the cone, so f_star <= 0,
    and f_star >= c^T v >= -1, where c^T x = c^T v = -1 would force
    H x = h, i.e. x = v, which is fractional. The range is then empty. The
    lattice family (h = 0) has its own closed form in `candidates_for_block`.
    """
    n = len(h_mat)
    if any(not 0 <= h[i] < h_mat[i][i] for i in range(n)):
        raise PreconditionError("right-hand side must be reduced (0 <= h_i < H_ii)")
    if not any(h):
        raise PreconditionError("h = 0 has no empty c0 range; its lattice candidate is fixed in closed form")
    w, delta = _scaled_weights(h_mat, c)
    wh = dot(w, h)
    if wh <= delta:
        return EmptyRange(l_star=0, f_star=0)
    return EmptyRange(l_star=-wh // delta + 1, f_star=_corner_from_table(path_table(h_mat, c), h, c).f_star)


def candidates_for_block(block: HnfBlock, want_empty: bool, want_lattice: bool):
    """All verified candidate records generated by one H block, as (empties, lattices).

    The empty family loops over every reduced h != 0 that passes the (H|h)
    gcd rule and every c of `enumerate_c`, with c0 from `c0_candidates`.

    The lattice family is h = 0, which passes the gcd rule iff every row of H
    is primitive, and has at most one candidate per block: with D = det H, g_i
    the gcd of column i of adj(H), v = H^T g, G = gcd(D, content v) and
    m = D / G, it is c = -m v / D, c0 = m, kept iff the vertex-excluding cone
    minimum f* equals m. Proof: vertex i of {H x <= 0, c x <= c0} is
    (c0 g_i / w_i) r_i, with w_i the path-table weight and
    r_i = -adj(H) e_i / g_i primitive (`_lattice_vertices_integral`). An
    empty lattice simplex has primitive edges, so w_i = c0 g_i; then
    c^T adj(H) = -c0 g^T and, as H adj(H) = D I, c = -q v / D with q = c0.
    This c is integral iff m | q, and lies in paral(-H^T) iff q g_i <= D.
    Only q = m can pass the (c|c0) gcd rule: for q = k m, (c_q, q) =
    k (c_m, m), while gcd(c_m, m) = 1 because c_m = -v / G and m = D / G with
    G = gcd(D, content v). Each r_i is a cone point with c r_i = m, so
    f* <= m, and a record needs c0 = f*. The vertices r_i are integral by
    construction (InvariantViolation otherwise). A kept candidate gets the
    record checks with c_index its position in `enumerate_c`, so the records
    and their provenance are those of a loop over every c.
    """
    h_mat = block.H
    delta = math.prod(block.diag)
    empties: list[CandidateRecord] = []
    lattices: list[CandidateRecord] = []
    row_gcds = [math.gcd(*row) for row in h_mat]
    if want_lattice and all(g == 1 for g in row_gcds):
        record = _lattice_record(block, delta)
        if record is not None:
            lattices.append(record)
    if want_empty:
        c_list = enumerate_c(h_mat)
        # h = 0 comes first in `enumerate_h`; every other h has a fractional opposite vertex.
        for h_index, h in enumerate(enumerate_h(h_mat)[1:], start=1):
            if any(math.gcd(g, x) > 1 for g, x in zip(row_gcds, h)):
                logger.debug("skip (H|h) gcd violation: diag=%s h=%s", block.diag, h)
                continue
            for c_index, c in enumerate(c_list):
                r = c0_candidates(h_mat, h, c)
                for c0 in range(r.l_star, r.f_star):
                    record = _candidate_record(block, delta, FAMILY_EMPTY, h_index, h, c_index, c, c0, r.f_star)
                    if record is not None:
                        empties.append(record)
    return empties, lattices


def _lattice_record(block: HnfBlock, delta: int) -> CandidateRecord | None:
    """The closed-form lattice record (h = 0) of a block with primitive rows, or None."""
    h_mat = block.H
    adj = adjugate(h_mat)
    g = [math.gcd(*col) for col in zip(*adj)]
    v = [dot(col, g) for col in zip(*h_mat)]  # H^T g
    m = delta // math.gcd(delta, *v)
    if m * max(g) > delta:
        return None
    c = tuple(-m * x // delta for x in v)
    if corner_minimum_excluding_vertex(h_mat, c).f_star != m:
        return None
    if not _lattice_vertices_integral(adj, c, m):
        raise InvariantViolation("closed-form lattice candidate has a fractional vertex")
    try:
        c_index = enumerate_c(h_mat).index(c)
    except ValueError:
        raise InvariantViolation(f"closed-form lattice c {c} is not in enumerate_c") from None
    return _candidate_record(block, delta, FAMILY_LATTICE, 0, (0,) * len(h_mat), c_index, c, m, m)


def _candidate_record(block, delta, family, h_index, h, c_index, c, c0, f_star) -> CandidateRecord | None:
    """The verified record of one candidate, or None (logged) if a check rejects it."""
    if math.gcd(*c, c0) > 1:
        reason = "(c|c0) gcd violation"
    else:
        if family == FAMILY_EMPTY and f_star <= c0:
            raise InvariantViolation("c0 range produced a non-empty simplex")
        ns = NormalizedSystem(n=block.s + block.k, s=block.s, k=block.k, H=block.H, h=h, c=c, c0=c0, delta=delta)
        reason = _rejection(ns, family)
    if reason is not None:
        logger.debug("skip %s candidate %s: %s", family, (block.diag, h, c, c0), reason)
        return None
    provenance = dict(
        delta=delta, diag=list(block.diag), tuple_index=block.tuple_index, t_index=block.t_index,
        b_index=block.b_index, h_index=h_index, c_index=c_index, c0=c0,
    )
    return CandidateRecord(ns, family, provenance)


def _lattice_vertices_integral(adj: Mat, c, c0: int) -> bool:
    """Whether {H x <= 0, c x <= c0} has integral vertices, read off adj(H).

    The apex is 0. Vertex i < n solves H_j x = 0 (j != i) and c x = c0, so it
    is x = -(t / det H) adj(H) e_i with c x = (t / det H) w_i = c0, where
    w_i = -c^T adj(H) e_i is the `paral_weights` weight: x = -(c0 / w_i) adj(H) e_i.
    """
    for col in zip(*adj):  # col = adj(H) e_i
        w_i = -dot(col, c)
        if any(c0 * a % w_i for a in col):
            return False
    return True


def _rejection(ns: NormalizedSystem, family: str) -> str | None:
    """Why `ns` is not a record of `family`, or None if it passes every check.

    A lattice candidate arrives from `_lattice_record`, whose cross-check
    `_lattice_vertices_integral` found its vertices integral, so every
    denominator of `meta.points` must be 1.
    """
    ok, violated = validate_normalized(ns)
    if not ok:
        return f"invalid normal form {violated}"
    try:
        meta = validate_simplex(ns.system())
    except NotASimplexError:
        return "degenerate simplex"
    if family == FAMILY_LATTICE:
        if any(den != 1 for _, den in meta.points):
            raise InvariantViolation("vertex test on adj(H) passed a fractional vertex")
        # Integer vertices alone do not rule out extra integer points on the
        # optimal facet. c0 = f_star is the least c-value of a nonzero integer
        # point of the cone, so any integer point of the simplex other than 0
        # lies on the facet c x = f_star; the simplex is lattice-empty iff that
        # facet holds exactly its n vertices.
        if count_minimum_attainers(ns.H, ns.c, ns.c0) != ns.n:
            return "extra integer point on the optimal facet"
    return None


def enumerate_families(delta: int, n: int, want_empty: bool = True, want_lattice: bool = True):
    """Full candidate streams (empty family, lattice family) for (delta, n).

    Iteration order is fixed everywhere, so two runs produce identical
    streams. Records still need deduplication by unimodular equivalence.
    """
    empties: list[CandidateRecord] = []
    lattices: list[CandidateRecord] = []
    for block in enumerate_H(delta, n):
        e, l = candidates_for_block(block, want_empty, want_lattice)
        empties.extend(e)
        lattices.extend(l)
    return empties, lattices
