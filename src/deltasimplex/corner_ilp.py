"""Exact minimization of c^T x over the integer points of a simplicial cone.

The cone is {x : H x <= h} with H nonsingular in Hermite form. Substituting
y = h - H x turns the problem into minimizing t^T y over nonnegative integer
vectors congruent to h modulo the lattice H Z^n, where t = -H^-T c. Scaling
by det(H) gives integer edge weights w_i in [1, det(H)], so the optimum is a
shortest path on the finite quotient group Z^n / H Z^n. Everything runs on
exact integers; the priority queue keys are plain ints.

The weights, the group and the shortest-path tree depend on (H, c) alone,
so one Dijkstra run per (H, c) is memoized as a `PathTable`, and every
right-hand side h (each -e_j of the vertex-excluding problem included) is
read off it; the witness and its checks are still rebuilt per query.
Each entry point checks (H, c) and reads the table once, through
`path_table`, and hands it to `_corner_from_table` for every h it needs:
the vertex-excluding minimum makes one table read for its n targets, not n.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvariantViolation, PreconditionError, RadiusError
from .exact_linalg import MEMO_CACHE_SIZE, Mat, Vec, dot, matrix, solve_rational, vector
from .normal_form import _reduce_hnf_rhs, is_hnf_matrix, paral_weights, reduce_rhs


@dataclass(frozen=True, eq=False)
class GroupTable:
    """The quotient group Z^n / H Z^n with unit-step successor links."""

    H: Mat
    elements: tuple[Vec, ...]
    index: dict
    successor: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def reduce_residue(h_mat: Mat, z) -> Vec:
    """Unique representative of z modulo H Z^n with 0 <= r_i < H_ii (H in Hermite form)."""
    return reduce_rhs(h_mat, z)[0]


def group_table(h_mat: Mat) -> GroupTable:
    return _group_table_cached(matrix(h_mat))


@lru_cache(maxsize=MEMO_CACHE_SIZE)
def _group_table_cached(h_mat: Mat) -> GroupTable:
    if not is_hnf_matrix(h_mat):
        raise PreconditionError("group table requires a Hermite-form matrix")
    n = len(h_mat)
    elements = tuple(itertools.product(*(range(h_mat[i][i]) for i in range(n))))
    index = {e: i for i, e in enumerate(elements)}
    successor = tuple(
        tuple(
            index[_reduce_hnf_rhs(h_mat, tuple(e[r] + (1 if r == i else 0) for r in range(n)))[0]]
            for i in range(n)
        )
        for e in elements
    )
    return GroupTable(H=h_mat, elements=elements, index=index, successor=successor)


@dataclass(frozen=True)
class CornerSolution:
    f_star: int
    witness_x: Vec
    infeasible: bool = False


def _scaled_weights(h_mat: Mat, c) -> tuple[Vec, int]:
    """The `paral_weights` w and delta = det(H); w_i in [1, delta] iff c lies in paral(-H^T)."""
    delta = math.prod(h_mat[i][i] for i in range(len(h_mat)))
    w = paral_weights(h_mat, c)
    if any(not 0 < wi <= delta for wi in w):
        raise PreconditionError(
            "objective is not in paral(-H^T); the cone problem is unbounded or ill-posed"
        )
    return w, delta


def _dijkstra(table: GroupTable, weights: Vec):
    n = len(weights)
    size = table.order
    zero_id = table.index[(0,) * n]
    dist: list[int | None] = [None] * size
    pred: list[tuple[int, int] | None] = [None] * size
    dist[zero_id] = 0
    heap = [(0, zero_id)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None and d > dist[u]:
            continue
        for i in range(n):
            v = table.successor[u][i]
            nd = d + weights[i]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                pred[v] = (u, i)
                heapq.heappush(heap, (nd, v))
    return zero_id, dist, pred


def _solve_lower_integer(h_mat: Mat, rhs) -> Vec:
    n = len(h_mat)
    x = []
    for i in range(n):
        acc = rhs[i] - sum(h_mat[i][j] * x[j] for j in range(i))
        q, r = divmod(acc, h_mat[i][i])
        if r:
            raise InvariantViolation("expected an integral triangular solve")
        x.append(q)
    return tuple(x)


@dataclass(frozen=True, eq=False)
class PathTable:
    """Group shortest paths from 0 for one (H, c): weights w, det(H), dist and pred."""

    weights: Vec
    delta: int
    group: GroupTable
    zero_id: int
    dist: tuple[int | None, ...]
    pred: tuple[tuple[int, int] | None, ...]


def path_table(h_mat: Mat, c) -> PathTable:
    """The memoized shortest-path table of (H, c); c must lie in paral(-H^T)."""
    return _path_table_cached(matrix(h_mat), vector(c))


@lru_cache(maxsize=MEMO_CACHE_SIZE)
def _path_table_cached(h_mat: Mat, c: Vec) -> PathTable:
    w, delta = _scaled_weights(h_mat, c)
    table = group_table(h_mat)
    zero_id, dist, pred = _dijkstra(table, w)
    return PathTable(w, delta, table, zero_id, tuple(dist), tuple(pred))


def corner_minimum(h_mat: Mat, h, c) -> CornerSolution:
    """Exact min of c^T x over {x in Z^n : H x <= h} via group shortest paths.

    Requires c in paral(-H^T), which makes the scaled weights positive and
    the objective bounded below on the cone. The optimal value satisfies
    f* = (c^T adj(H) h + dist(class(h))) / delta, which must divide exactly;
    the constant term is read off the weights, c^T adj(H) h = -w^T h. The
    distances come from the memoized `path_table` of (H, c); the witness is
    rebuilt from its shortest-path predecessors on every call.
    """
    return _corner_from_table(path_table(h_mat, c), h, c)


def _corner_from_table(pt: PathTable, h, c) -> CornerSolution:
    """`corner_minimum` for right-hand side h, read off the path table `pt` of (H, c).

    `pt` comes from `path_table`, which has checked H and c; this runs the
    per-h work: the residue of h, the divisibility invariant, and the
    witness rebuilt from the predecessors and checked against H, h and c.
    """
    h_mat = pt.group.H
    n = len(h_mat)
    target = pt.group.index[_reduce_hnf_rhs(h_mat, h)[0]]
    if pt.dist[target] is None:
        return CornerSolution(0, (0,) * n, infeasible=True)
    total = pt.dist[target] - dot(pt.weights, h)
    if total % pt.delta:
        raise InvariantViolation("optimal value failed the divisibility invariant")
    f_star = total // pt.delta
    steps = [0] * n
    node = target
    while node != pt.zero_id:
        node, i = pt.pred[node]
        steps[i] += 1
    x = _solve_lower_integer(h_mat, tuple(h[i] - steps[i] for i in range(n)))
    if dot(c, x) != f_star or any(dot(h_mat[i], x) > h[i] for i in range(n)):
        raise InvariantViolation("reconstructed witness does not attain the optimum")
    return CornerSolution(f_star, x)


def corner_minimum_excluding_vertex(h_mat: Mat, c) -> CornerSolution:
    """Exact min of c^T x over {x in Z^n \\ {0} : H x <= 0}.

    This is the reduced lattice-vertex case (h = 0, apex at the origin); the
    minimum is taken over the n subproblems with right-hand side -e_j, all
    read off one `path_table` read of (H, c), each with its own witness.
    """
    pt = path_table(h_mat, c)
    n = len(pt.weights)
    best = None
    for j in range(n):
        rhs = tuple(-1 if i == j else 0 for i in range(n))
        sol = _corner_from_table(pt, rhs, c)
        if best is None or sol.f_star < best.f_star:
            best = sol
    return best


def corner_minimum_bruteforce(h_mat: Mat, h, c, radius: int) -> CornerSolution:
    """Box-scan oracle for `corner_minimum`.

    Scans the integer points of v + [-radius, radius]^n intersected with the
    cone, pruning coordinate by coordinate through the triangular rows. The
    result is only trusted when some optimum lies strictly inside the box;
    otherwise the radius was too small and the caller must enlarge it.
    """
    n = len(h_mat)
    if not is_hnf_matrix(h_mat):
        raise PreconditionError("box-scan oracle requires a Hermite-form matrix")
    v = solve_rational(h_mat, h)
    lo = [math.ceil(v[i]) - radius for i in range(n)]
    hi = [math.floor(v[i]) + radius for i in range(n)]

    best: list = [None, None, False]  # value, witness, strict-interior flag

    def interior(x: list[int]) -> bool:
        return all(lo[i] < x[i] < hi[i] for i in range(n))

    def scan(depth: int, x: list[int], slack: list[int], value: int) -> None:
        if depth == n:
            if best[0] is None or value < best[0]:
                best[0], best[1], best[2] = value, tuple(x), interior(x)
            elif value == best[0] and not best[2] and interior(x):
                best[1], best[2] = tuple(x), True
            return
        cone_hi = slack[depth] // h_mat[depth][depth]
        upper = min(hi[depth], cone_hi)
        for xi in range(lo[depth], upper + 1):
            nxt = list(slack)
            for r in range(depth + 1, n):
                nxt[r] -= h_mat[r][depth] * xi
            x.append(xi)
            scan(depth + 1, x, nxt, value + c[depth] * xi)
            x.pop()

    scan(0, [], list(h), 0)
    if best[0] is None:
        raise RadiusError(f"radius too small: no feasible point in the box (radius={radius})")
    if not best[2]:
        raise RadiusError(f"radius too small: optimum only attained on the box boundary (radius={radius})")
    return CornerSolution(best[0], best[1])


def count_minimum_attainers(h_mat: Mat, c, f_star: int) -> int:
    """Number of integer points of {x != 0 : H x <= 0} with c^T x == f_star.

    Counts, by dynamic programming over (residue class, scaled value), the
    nonnegative integer vectors y in the lattice H Z^n with w^T y equal to
    det(H) * f_star; these are in bijection with the cone points at value
    f_star via y = -H x. Used to certify that the optimal facet of a lattice
    candidate carries exactly its n vertices and nothing else. The weights,
    det(H) and the group are read off the `path_table` of (H, c).
    """
    n = len(h_mat)
    pt = path_table(h_mat, c)
    w, delta, table, zero_id = pt.weights, pt.delta, pt.group, pt.zero_id
    budget = delta * f_star
    if budget < 0:
        return 0
    states = {(zero_id, 0): 1}
    for i in range(n):
        nxt: dict = {}
        for (eid, val), cnt in states.items():
            node = eid
            q = 0
            while val + q * w[i] <= budget:
                key = (node, val + q * w[i])
                nxt[key] = nxt.get(key, 0) + cnt
                node = table.successor[node][i]
                q += 1
        states = nxt
    return states.get((zero_id, budget), 0)
