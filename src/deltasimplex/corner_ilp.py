"""Exact minimization of c^T x over the integer points of a simplicial cone.

The cone is {x : H x <= h} with H nonsingular in Hermite form. Substituting
y = h - H x turns the problem into minimizing t^T y over nonnegative integer
vectors congruent to h modulo the lattice H Z^n, where t = -H^-T c. Scaling
by det(H) gives integer edge weights w_i in [1, det(H)], so the optimum is a
shortest path on the finite quotient group Z^n / H Z^n. Everything runs on
exact integers; the priority queue keys are plain ints.

The weights, the group and the shortest-path tree depend on (H, c) alone,
so they live on one `Cone` of (H, c) (`path_table`): it checks c and holds
the weights w and det(H) from the start, runs Dijkstra once, on the first
call that needs distances, and answers `minimum(h)` for every right-hand
side h (each -e_j of the vertex-excluding problem included); the witness
and its checks are still rebuilt per query. Nothing here memoizes cones:
whoever reads one (H, c) many times keeps its cone (the enumeration keeps
one per c of a block).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
class Cone:
    """The cone {x : H x <= h} of one (H, c), for every right-hand side h.

    `path_table` builds and checks it: `weights` is the `paral_weights` w,
    each in [1, delta] because c lies in paral(-H^T), and `delta` is det(H).
    The group shortest paths from 0 (one `_dijkstra` run) are made on the
    first `minimum` call and kept.
    """

    H: Mat
    c: Vec
    weights: Vec
    delta: int

    @cached_property
    def _paths(self) -> tuple:
        """(group, zero_id, dist, pred): the shortest paths from 0 on Z^n / H Z^n, read-only."""
        group = group_table(self.H)
        return (group, *_dijkstra(group, self.weights))

    def minimum(self, h) -> CornerSolution:
        """`corner_minimum` for right-hand side h.

        Per h: the residue of h, the divisibility invariant, and the witness
        rebuilt from the predecessors and checked against H, h and c. The
        unit steps +e_i generate Z^n / H Z^n, so every class has a distance.
        """
        group, zero_id, dist, pred = self._paths
        h_mat = self.H
        n = len(h_mat)
        target = group.index[_reduce_hnf_rhs(h_mat, h)[0]]
        if dist[target] is None:
            raise InvariantViolation("a residue class is unreachable from 0 by unit steps")
        total = dist[target] - dot(self.weights, h)
        if total % self.delta:
            raise InvariantViolation("optimal value failed the divisibility invariant")
        f_star = total // self.delta
        steps = [0] * n
        node = target
        while node != zero_id:
            node, i = pred[node]
            steps[i] += 1
        x = _solve_lower_integer(h_mat, tuple(h[i] - steps[i] for i in range(n)))
        if dot(self.c, x) != f_star or any(dot(h_mat[i], x) > h[i] for i in range(n)):
            raise InvariantViolation("reconstructed witness does not attain the optimum")
        return CornerSolution(f_star, x)


def path_table(h_mat: Mat, c) -> Cone:
    """The checked `Cone` of (H, c); c must lie in paral(-H^T). Each call builds a new one."""
    h_mat, c = matrix(h_mat), vector(c)
    if not is_hnf_matrix(h_mat):
        raise PreconditionError("cone minimum requires a Hermite-form matrix")
    delta = math.prod(h_mat[i][i] for i in range(len(h_mat)))
    w = paral_weights(h_mat, c)
    if any(not 0 < wi <= delta for wi in w):
        raise PreconditionError(
            "objective is not in paral(-H^T); the cone problem is unbounded or ill-posed"
        )
    return Cone(h_mat, c, w, delta)


def corner_minimum(h_mat: Mat, h, c) -> CornerSolution:
    """Exact min of c^T x over {x in Z^n : H x <= h} via group shortest paths.

    Requires c in paral(-H^T), which makes the scaled weights positive and
    the objective bounded below on the cone. The optimal value satisfies
    f* = (c^T adj(H) h + dist(class(h))) / delta, which must divide exactly;
    the constant term is read off the weights, c^T adj(H) h = -w^T h. It
    builds the `Cone` of (H, c) for this one query; a caller with many h for
    one (H, c) keeps the cone and calls `Cone.minimum` instead.
    """
    return path_table(h_mat, c).minimum(h)


def corner_minimum_excluding_vertex(cone: Cone) -> CornerSolution:
    """Exact min of c^T x over {x in Z^n \\ {0} : H x <= 0} for the cone of (H, c).

    This is the reduced lattice-vertex case (h = 0, apex at the origin); the
    minimum is taken over the n subproblems with right-hand side -e_j, all
    read off the one cone, each with its own witness.
    """
    n = len(cone.weights)
    best = None
    for j in range(n):
        sol = cone.minimum(tuple(-1 if i == j else 0 for i in range(n)))
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


def count_minimum_attainers(cone: Cone, f_star: int) -> int:
    """Number of integer points of {x != 0 : H x <= 0} with c^T x == f_star, for the cone of (H, c).

    Counts, by dynamic programming over (residue class, scaled value), the
    nonnegative integer vectors y in the lattice H Z^n with w^T y equal to
    det(H) * f_star; these are in bijection with the cone points at value
    f_star via y = -H x. Used to certify that the optimal facet of a lattice
    candidate carries exactly its n vertices and nothing else. The weights
    and det(H) are read off the cone; no distances are needed.
    """
    n = len(cone.H)
    w, delta, table = cone.weights, cone.delta, group_table(cone.H)
    zero_id = table.index[(0,) * n]
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
