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
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import InvariantViolation, PreconditionError
from .exact_linalg import MEMO_CACHE_SIZE, Mat, Vec, dot, is_hnf_matrix, matrix, vector
from .normal_form import _reduce_hnf_rhs, paral_weights


class GroupTable(NamedTuple):
    """The quotient group Z^n / H Z^n with unit-step successor links."""

    H: Mat
    elements: tuple[Vec, ...]
    index: dict
    successor: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


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


class CornerSolution(NamedTuple):
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


class Cone:
    """The cone {x : H x <= h} of one (H, c), for every right-hand side h.

    `path_table` builds and checks it: `weights` is the `paral_weights` w,
    each in [1, delta] because c lies in paral(-H^T), and `delta` is det(H).
    The group shortest paths from 0 (one `_dijkstra` run) are made on the
    first `minimum` call and kept. A plain class, compared by identity,
    since it holds that cached result.
    """

    def __init__(self, H: Mat, c: Vec, weights: Vec, delta: int):
        self.H = H
        self.c = c
        self.weights = weights
        self.delta = delta

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
        residue, x = _reduce_hnf_rhs(h_mat, tuple(h[i] - steps[i] for i in range(n)))
        if any(residue):
            raise InvariantViolation("reconstructed witness is not integral")
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
