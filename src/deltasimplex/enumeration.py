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
only possible (c, c0), and one cone minimum and one facet count decide it
(proof in `candidates_for_block`). Both families read the block's cones.

Only two rules drop a candidate: a row gcd > 1 (the class it describes comes
from the run with its true, smaller delta) and, for the lattice family, an
integer point besides the vertices. All else holds by construction, so the
stream is unchecked: the record builder `_record` only builds, and
`record_problem`, the one record check, runs where its meta is needed: in
`equivalence.dedup_families` on every record it walks, every survivor
among them, and in `atlas.verify_atlas` on every record read.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .corner_ilp import Cone, corner_minimum_excluding_vertex, count_minimum_attainers, path_table
from .errors import InvariantViolation, NotASimplexError, PreconditionError
from .exact_linalg import Mat, Vec, _adjugate_cached, dot, matrix
from .normal_form import NormalizedSystem, validate_normalized
from .simplex_model import SimplexMeta, validate_simplex

FAMILY_EMPTY = "empty"
FAMILY_LATTICE = "lattice_empty"


class HnfBlock(NamedTuple):
    """One enumerated block matrix H = [[I_s, 0], [B, T]] with provenance indices."""

    s: int
    k: int
    diag: Vec
    H: Mat
    tuple_index: int
    t_index: int
    b_index: int


class CandidateRecord(NamedTuple):
    """A generated normalized system, its family and where the generator made it.

    A plain named tuple: equality compares all three fields, provenance
    included, and the `provenance` dict makes a record unhashable. Dedup
    indexes canonical key tuples, never records.
    """

    ns: NormalizedSystem
    family: str
    provenance: dict

    def system(self):
        return self.ns.system()


class EmptyRange(NamedTuple):
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

    The descent runs on T = D t with D = det(H), the product of the
    diagonal, and t = -H^-T c, which is integral (it is
    `paral_weights(H, c)`), so every bound is an integer floor division and
    every new T_i an exact one. H must be lower triangular, since the
    descent reads only its lower triangle; an entry above the diagonal
    raises InvariantViolation.
    """
    n = len(h_mat)
    if any(h_mat[i][j] for i in range(n) for j in range(i + 1, n)):
        raise InvariantViolation("enumerate_c requires a lower-triangular H")
    d = math.prod(h_mat[i][i] for i in range(n))
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
            t_vals[i] = (-ci * d - shift) // h_ii
            c_vals[i] = ci
            descend(i - 1)

    descend(n - 1)
    return tuple(out)


def c0_candidates(cone: Cone, h) -> EmptyRange:
    """The admissible c0 range of the empty family for the cone of (H, c) and a fixed h.

    h must be reduced and nonzero, so the opposite vertex v = H^-1 h is
    fractional. Every c0 in [l_star, f_star - 1] then gives an empty
    simplex, where l_star is the least integer strictly above c^T v and
    f_star the cone minimum; the range may be empty. With w the cone's
    weights, c^T v = -(w^T h) / det(H), and the cone minimum is read off the
    cone only when w^T h > det(H), so no shortest paths are computed for an
    (H, c) that never needs one. Otherwise 0 < w^T h <= det(H) (w > 0,
    h >= 0, h != 0), so l_star = 0, and f_star = 0 too: 0 lies in the cone,
    so f_star <= 0, and f_star >= c^T v >= -1, where c^T x = c^T v = -1
    would force H x = h, i.e. x = v, which is fractional. The range is then
    empty. The lattice family (h = 0) has its own closed form in
    `candidates_for_block`.
    """
    h_mat = cone.H
    if any(not 0 <= h[i] < h_mat[i][i] for i in range(len(h_mat))):
        raise PreconditionError("right-hand side must be reduced (0 <= h_i < H_ii)")
    if not any(h):
        raise PreconditionError("h = 0 has no empty c0 range; its lattice candidate is fixed in closed form")
    wh = dot(cone.weights, h)
    if wh <= cone.delta:
        return EmptyRange(l_star=0, f_star=0)
    return EmptyRange(l_star=-wh // cone.delta + 1, f_star=cone.minimum(h).f_star)


def candidates_for_block(block: HnfBlock, want_empty: bool, want_lattice: bool):
    """All candidate records generated by one H block, as (empties, lattices); unchecked, see `_record`.

    One `Cone` per c, shared by both families, so each (H, c) runs Dijkstra
    at most once. The empty family loops over every reduced h != 0 that
    passes the (H|h) gcd rule and every c of `enumerate_c`, with every c0 of
    `c0_candidates` that passes the (c|c0) gcd rule.

    The lattice family is h = 0, which passes the gcd rule iff every row of H
    is primitive, and has at most one candidate per block: with D = det H, g_i
    the gcd of column i of adj(H), v = H^T g, G = gcd(D, content v) and
    m = D / G, it is c = -m v / D, c0 = m, kept iff the vertex-excluding cone
    minimum f* equals m and the optimal facet holds no integer point besides
    the n vertices. Proof: vertex i of {H x <= 0, c x <= c0} is
    (c0 g_i / w_i) r_i, with w_i the cone weight of (H, c) and
    r_i = -adj(H) e_i / g_i primitive (`_lattice_vertices_integral`). An
    empty lattice simplex has primitive edges, so w_i = c0 g_i; then
    c^T adj(H) = -c0 g^T and, as H adj(H) = D I, c = -q v / D with q = c0.
    This c is integral iff m | q, and lies in paral(-H^T) iff q g_i <= D.
    Only q = m can pass the (c|c0) gcd rule: for q = k m, (c_q, q) =
    k (c_m, m), while gcd(c_m, m) = 1 because c_m = -v / G and m = D / G with
    G = gcd(D, content v). Each r_i is a cone point with c r_i = m, so
    f* <= m, and a record needs c0 = f*. The vertices r_i are integral by
    construction (InvariantViolation otherwise). A kept candidate gets
    c_index, its position in `enumerate_c`, so the records and their
    provenance are those of a loop over every c.
    """
    h_mat = block.H
    delta = math.prod(block.diag)
    empties: list[CandidateRecord] = []
    lattices: list[CandidateRecord] = []
    cones: dict[Vec, Cone] = {}
    row_gcds = [math.gcd(*row) for row in h_mat]
    if want_lattice and all(g == 1 for g in row_gcds):
        record = _lattice_record(block, delta, cones)
        if record is not None:
            lattices.append(record)
    if want_empty:
        c_list = [(c, math.gcd(*c)) for c in enumerate_c(h_mat)]
        # h = 0 comes first in `enumerate_h`; every other h has a fractional opposite vertex.
        for h_index, h in enumerate(enumerate_h(h_mat)[1:], start=1):
            if any(math.gcd(g, x) > 1 for g, x in zip(row_gcds, h)):
                continue
            for c_index, (c, c_gcd) in enumerate(c_list):
                cone = cones.get(c)
                if cone is None:
                    cone = cones[c] = path_table(h_mat, c)
                r = c0_candidates(cone, h)
                for c0 in range(r.l_star, r.f_star):
                    if math.gcd(c_gcd, c0) > 1:
                        continue
                    empties.append(_record(block, delta, FAMILY_EMPTY, h_index, h, c_index, c, c0))
    return empties, lattices


def _lattice_record(block: HnfBlock, delta: int, cones: dict[Vec, Cone]) -> CandidateRecord | None:
    """The closed-form lattice record (h = 0) of a block with primitive rows, or None; adds its cone to `cones`."""
    h_mat = block.H
    n = len(h_mat)
    adj = _adjugate_cached(h_mat)[1]  # H is `enumerate_H`'s checked matrix
    g = [math.gcd(*col) for col in zip(*adj)]
    v = [dot(col, g) for col in zip(*h_mat)]  # H^T g
    m = delta // math.gcd(delta, *v)
    if m * max(g) > delta:
        return None
    c = tuple(-m * x // delta for x in v)
    cone = cones[c] = path_table(h_mat, c)
    if corner_minimum_excluding_vertex(cone).f_star != m:
        return None
    if not _lattice_vertices_integral(adj, cone.weights, m):
        raise InvariantViolation("closed-form lattice candidate has a fractional vertex")
    # f* = m is the least c-value of a nonzero cone point, so every integer
    # point of the simplex but 0 lies on the facet c x = m: the simplex is
    # lattice-empty iff that facet holds exactly its n vertices.
    if count_minimum_attainers(cone, m) != n:
        return None
    try:
        c_index = enumerate_c(h_mat).index(c)
    except ValueError:
        raise InvariantViolation(f"closed-form lattice c {c} is not in enumerate_c") from None
    return _record(block, delta, FAMILY_LATTICE, 0, (0,) * n, c_index, c, m)


def _record(block, delta, family, h_index, h, c_index, c, c0) -> CandidateRecord:
    """The record of one generated candidate, with its provenance; it is not checked here.

    `equivalence.dedup_families` runs `record_problem` on each record it
    walks and raises InvariantViolation on a problem. That checks every
    written record: the walk visits keys in ascending order and walks every
    survivor. A candidate is dropped unwalked only when its key is in the
    searched set of a record already checked; the key is injective on forms,
    so the candidate is a form of a checked simplex, and its family cannot
    differ, as an empty simplex is never equivalent to a lattice one.

    Every check holds by construction, so a failure is a generator bug:
    - H and h: `enumerate_H` gives Hermite form, det(H) = delta, the identity
      block, sorted B columns and T_ii >= 2 (so 2^k <= delta); h is reduced.
    - Tie-break: with t = -H^-T c in (0, 1]^n (`enumerate_c`), equal B columns
      j < j' give c_j - c_j' = t_j' - t_j, an integer in (-1, 1), so 0.
    - Minors: w = det(H) t lies in (0, delta] (the lattice c has w_i = m g_i),
      so every maximal minor of [H; c], det(H) or -w_i, is at most delta.
    - Entries: H_ij < H_ii off the diagonal, and
      |c_j| = (H^T t)_j <= 1 + sum over i >= j of (H_ii - 1) <= delta.
    - Row gcds: the (H|h) rule, and the (c|c0) rule, which the empty loop
      applies and the lattice closed form proves.
    - Simplex: c in paral(-H^T) bounds it, and c0 > c^T v (v = H^-1 h) makes
      it full-dimensional: c0 >= l_star for the empty family, c0 = m > 0 for
      the lattice one, whose vertices `_lattice_vertices_integral` passed.
    """
    ns = NormalizedSystem(n=block.s + block.k, s=block.s, k=block.k, H=block.H, h=h, c=c, c0=c0, delta=delta)
    provenance = dict(
        delta=delta, diag=list(block.diag), tuple_index=block.tuple_index, t_index=block.t_index,
        b_index=block.b_index, h_index=h_index, c_index=c_index, c0=c0,
    )
    return CandidateRecord(ns, family, provenance)


def record_problem(ns: NormalizedSystem, family: str) -> tuple[str | None, SimplexMeta | None]:
    """The first claim of a record that fails, as text, or None; with the record's SimplexMeta.

    The one record check, run by the dedup walk (`equivalence.dedup_families`)
    and by `atlas.verify_atlas`, in this order: the normal form (with it,
    every row of (A | b) is primitive), that the system is a simplex, a known
    family, and integral vertices for the lattice family. The point count is
    the caller's. The meta is None when the simplex check was not reached.
    """
    ok, violated = validate_normalized(ns)
    if not ok:
        return f"validator violation {violated}", None
    try:
        meta = validate_simplex(ns.system())
    except NotASimplexError as exc:
        return f"emptiness/validator violation: not a simplex ({exc})", None
    if family not in (FAMILY_EMPTY, FAMILY_LATTICE):
        return f"unknown family {family!r}", meta
    if family == FAMILY_LATTICE and any(den != 1 for _, den in meta.points):
        return f"{FAMILY_LATTICE} record has a fractional vertex", meta
    return None, meta


def _lattice_vertices_integral(adj: Mat, w: Vec, c0: int) -> bool:
    """Whether {H x <= 0, c x <= c0} has integral vertices, read off adj(H) and the cone weights w.

    The apex is 0. Vertex i < n solves H_j x = 0 (j != i) and c x = c0, so it
    is x = -(t / det H) adj(H) e_i with c x = (t / det H) w_i = c0, where
    w_i = -c^T adj(H) e_i is the cone's weight: x = -(c0 / w_i) adj(H) e_i.
    """
    for col, w_i in zip(zip(*adj), w):  # col = adj(H) e_i
        if any(c0 * a % w_i for a in col):
            return False
    return True
