"""Seeded equivalence queries over the fixed record pool, and their checks.

Everything here is the benchmark's own exact arithmetic; nothing is imported
from the package under test, so the checks stay independent of it. A system
is a pair (A, b) of integer tuples describing {x : A x <= b}.

The pool (`pool.txt`) holds the canonical keys of all 168 atlas classes of
the cells (delta, n) = (5, 4) and (4, 5), as the CLI enumerated them with
`--family both`. Distinct keys are meant to be distinct unimodular classes,
but the seed's dedup misses some duplicates, so a negative's expected
answer is proven here instead (`hard_negative_pairs`).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "pool.txt"


def parse_key(key: str):
    """(n, delta, A, b) from a canonical key `n:delta:flattened (A | b)`."""
    n_text, delta_text, entries = key.split(":")
    n = int(n_text)
    flat = [int(x) for x in entries.split(",")]
    if len(flat) != (n + 1) * (n + 1):
        raise ValueError(f"malformed pool key {key!r}")
    rows = [flat[i * (n + 1) : (i + 1) * (n + 1)] for i in range(n + 1)]
    return n, int(delta_text), tuple(tuple(r[:n]) for r in rows), tuple(r[n] for r in rows)


def load_pool() -> list[tuple[int, int, tuple, tuple]]:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return [parse_key(line.strip()) for line in fh if line.strip()]


def det(m) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def solve(m, rhs) -> tuple[Fraction, ...]:
    """Solution of m x = rhs for nonsingular integer m, by Cramer's rule."""
    d = det(m)
    return tuple(
        Fraction(det([row[:j] + (v,) + row[j + 1 :] for row, v in zip(m, rhs)]), d)
        for j in range(len(m))
    )


def minors(a) -> list[int]:
    """|maximal minor| per omitted row of an (n+1) x n matrix."""
    return [abs(det([row for i, row in enumerate(a) if i != omit])) for omit in range(len(a))]


def vertices(a, b) -> frozenset:
    """The n+1 vertices of the simplex {x : A x <= b}; vertex i is opposite row i."""
    out = set()
    for omit in range(len(a)):
        base = [i for i in range(len(a)) if i != omit]
        out.add(solve([a[i] for i in base], [b[i] for i in base]))
    return frozenset(out)


def apply_affine(u, x0, point) -> tuple:
    return tuple(sum(ui * p for ui, p in zip(row, point)) + t for row, t in zip(u, x0))


def random_unimodular(rng: random.Random, n: int):
    """(U, x0): a product of 2n elementary integer row operations, a signed permutation, a shift."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    u = [[sign * x for x in u[p]] for p, sign in zip(perm, signs)]
    x0 = [rng.randint(-3, 3) for _ in range(n)]
    return tuple(tuple(r) for r in u), tuple(x0)


def moved(rng: random.Random, a, b):
    """System of m^-1(S) = (A U, b - A x0) for a random unimodular m(x) = U x + x0."""
    n = len(a[0])
    u, x0 = random_unimodular(rng, n)
    au = tuple(tuple(sum(row[k] * u[k][j] for k in range(n)) for j in range(n)) for row in a)
    shifted = tuple(bi - sum(r * t for r, t in zip(row, x0)) for row, bi in zip(a, b))
    return au, shifted


class Query:
    """One check_equivalence(S, T) question with its known answer.

    For a positive, T is the preimage of S under a random unimodular map,
    with its rows in the same order as S's, so the equivalence witness must
    carry vert(S) onto vert(T). For a hard negative, S and T come from a
    `hard_negative_pairs` pair, and T is moved by a random map.
    """

    __slots__ = ("n", "s", "t", "equivalent", "base_t")

    def __init__(self, n, s, t, equivalent):
        self.n = n
        self.s = s
        self.t = t
        self.equivalent = equivalent
        # The least base of maximal |minor| of T, as `normalize --base auto` picks it.
        ms = minors(t[0])
        top = max(ms)
        omit = max(i for i, m in enumerate(ms) if m == top)
        self.base_t = tuple(i for i in range(n + 1) if i != omit)

    def check_witness(self, u, x0) -> bool:
        """True iff x -> U x + x0 is unimodular and maps vert(S) onto vert(T)."""
        if abs(det(u)) != 1:
            return False
        return frozenset(apply_affine(u, x0, v) for v in vertices(*self.s)) == vertices(*self.t)


def points_in_dilate(a, b, k: int) -> int:
    """|kS ∩ Z^n| for S = {x : A x <= b}, by scanning the bounding box of kS.

    Unimodular affine maps carry kS onto k m(S) up to an integer shift, so
    this count is a class invariant that the program never computes.
    """
    kb = tuple(k * x for x in b)
    verts = vertices(a, kb)
    ranges = [
        range(math.ceil(min(v[j] for v in verts)), math.floor(max(v[j] for v in verts)) + 1)
        for j in range(len(a[0]))
    ]
    return sum(
        all(sum(x * y for x, y in zip(row, p)) <= bi for row, bi in zip(a, kb))
        for p in itertools.product(*ranges)
    )


def hard_negative_pairs(pool):
    """Pairs of pool records with equal (n, delta, minor multiset) that are provably inequivalent.

    The proof is a differing |2S ∩ Z^n|. Pairs on which that count agrees
    are left out: their ground truth would rest on the program's own dedup.
    """
    groups: dict = {}
    for n, delta, a, b in pool:
        groups.setdefault((n, delta, tuple(sorted(minors(a)))), []).append((a, b))
    pairs = []
    for _, members in sorted(groups.items()):
        counts = [points_in_dilate(a, b, 2) for a, b in members]
        pairs.extend(
            (members[i], members[j])
            for i, j in itertools.combinations(range(len(members)), 2)
            if counts[i] != counts[j]
        )
    return pairs


def _shuffled_cycle(rng: random.Random, items):
    """Endless passes over `items`, each pass in a fresh random order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def query_stream(seed: int, pool):
    """Endless seeded stream alternating positives and hard negatives.

    Records and pairs are drawn in shuffled passes rather than independently,
    so every stretch of the stream covers the pool evenly and the latency
    mix hardly depends on the seed.
    """
    rng = random.Random(seed)
    records = _shuffled_cycle(rng, pool)
    pairs = _shuffled_cycle(rng, hard_negative_pairs(pool))
    for i in itertools.count():
        if i % 2 == 0:
            n, _, a, b = next(records)
            yield Query(n, (a, b), moved(rng, a, b), True)
        else:
            first, second = next(pairs)
            if rng.random() < 0.5:
                first, second = second, first
            (a1, b1), (a2, b2) = first, second
            yield Query(len(a1[0]), (a1, b1), moved(rng, a2, b2), False)
