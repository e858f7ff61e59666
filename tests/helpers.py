"""Shared test utilities: independent oracles and random instance generators.

The oracles here deliberately avoid the package's own algorithms: the
determinant and adjugate oracles are plain cofactor expansion, rational
solving is textbook Gaussian elimination over Fractions, and the
equivalence oracle is an exact search over vertex bijections. The test
references after them (the box-scan cone minimum, the maximal minors, the
vertex opposite the c-row, the residue and key readers, the Fraction view
of the vertices, the identity map and
the equivalent-set search as one plain loop, the class's key set over
every row order of every maximal base, the class invariant read off a
validated simplex's vertices, and the dedup walk that runs every search to
its end) are built on the package's primitives; no package
module calls them.

The reference kernels at the end (`ref_*`) are the plain versions of the
package's hot kernels that the leaner ones replaced: generator sums of
products, the adjugate on an n x 2n tableau, a rebuilt permutation,
Bareiss for det(H) and a sign from (-1) ** (i + n). `test_kernel_references.py` checks that the package
returns the same values, exceptions and labels.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from deltasimplex import (
    AffineUnimodularMap,
    CornerSolution,
    DeltaSimplexError,
    InequalitySystem,
    InvariantViolation,
    NormalizedSystem,
    NotASimplexError,
    PreconditionError,
    ShapeError,
    apply_map,
    compose,
    det,
    identity,
    inverse,
    matrix,
    primitivize,
    reduce_rhs,
    reduced_permutations,
    solve_rational,
    validate_simplex,
)
from deltasimplex.enumeration import record_problem
from deltasimplex.equivalence import _unit_swap_twin, class_keys
from deltasimplex.errors import InvalidSystemError
from deltasimplex.exact_linalg import adjugate, hnf, shape
from deltasimplex.normal_form import KeyStep, _flat_key, _reduce_hnf_rhs, canonical_key, is_hnf_matrix, key_step, key_tuple
from deltasimplex.simplex_model import SimplexMeta, reduced_point


def cofactor_det(m) -> int:
    """Laplace expansion along successive rows, memoized on the columns left.

    The memo makes an n x n determinant cost O(n 2^n) instead of O(n!), so
    the oracle stays usable up to n = 9.
    """
    n = len(m)

    @lru_cache(maxsize=None)
    def expand(row: int, cols: tuple[int, ...]) -> int:
        if row == n:
            return 1
        total = 0
        for pos, j in enumerate(cols):
            if m[row][j]:
                total += (-1) ** pos * m[row][j] * expand(row + 1, cols[:pos] + cols[pos + 1 :])
        return total

    return expand(0, tuple(range(n)))


def cofactor_adjugate(m):
    """adj(m) entry by entry from its definition, each cofactor by `cofactor_det`."""
    n = len(m)
    return tuple(
        tuple(
            (-1) ** (i + j) * cofactor_det([row[:i] + row[i + 1 :] for r, row in enumerate(m) if r != j])
            for j in range(n)
        )
        for i in range(n)
    )


def gauss_inverse(m) -> list[list[Fraction]]:
    """Inverse over Fractions by Gauss-Jordan elimination; independent of the package."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def gauss_solve(m, b) -> tuple[Fraction, ...]:
    inv = gauss_inverse(m)
    n = len(m)
    return tuple(sum(inv[i][j] * b[j] for j in range(n)) for i in range(n))


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows))


def random_simplex(rng: random.Random, n: int, entry_bound: int = 6) -> InequalitySystem:
    """Rejection-sample a valid simplex system with bounded entries."""
    while True:
        a = random_int_matrix(rng, n + 1, n, entry_bound)
        b = tuple(rng.randint(-entry_bound, entry_bound) for _ in range(n + 1))
        try:
            sys = InequalitySystem(n, a, b)
            validate_simplex(sys)
            return sys
        except NotASimplexError:
            continue


def random_unimodular_map(rng: random.Random, n: int, entry_bound: int = 10, trans_bound: int = 10) -> AffineUnimodularMap:
    """Random product of elementary row operations, retried until entries fit."""
    while True:
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            kind = rng.randrange(3)
            i = rng.randrange(n)
            j = rng.randrange(n)
            if kind == 0 and i != j:
                f = rng.choice([-1, 1])
                for col in range(n):
                    u[i][col] += f * u[j][col]
            elif kind == 1 and i != j:
                u[i], u[j] = u[j], u[i]
            elif kind == 2:
                u[i] = [-x for x in u[i]]
        if max(abs(x) for row in u for x in row) <= entry_bound:
            x0 = tuple(rng.randint(-trans_bound, trans_bound) for _ in range(n))
            return AffineUnimodularMap(tuple(tuple(row) for row in u), x0)


def constructed_simplex(rng: random.Random, diag, lam_bound: int = 2, rhs_bound: int = 3) -> InequalitySystem:
    """A simplex built around a Hermite block with diagonal `diag`, then moved and its rows shuffled.

    H is lower triangular with diagonal `diag` and each entry left of the
    diagonal reduced mod its row's diagonal entry. The last row is c = -lam^T H
    with every lam_i in 1..lam_bound, so the n + 1 rows are positively
    dependent and bound whatever they cut out; the maximal minors are det(H)
    and lam_i det(H), none zero. With h random, the vertex H^-1 h has
    c^T H^-1 h = -lam^T h, so c0 = -lam^T h + t with t >= 1 puts it strictly
    inside the last half-space and the simplex is full-dimensional. No draw
    is rejected, unlike `random_simplex`, so n = 12 costs no more than n = 3
    per draw. `shuffled_image` then hides the block.
    """
    n = len(diag)
    h_mat = tuple(tuple(rng.randrange(diag[i]) if j < i else diag[i] if j == i else 0 for j in range(n)) for i in range(n))
    lam = [rng.randint(1, lam_bound) for _ in range(n)]
    c = tuple(-sum(l * row[j] for l, row in zip(lam, h_mat)) for j in range(n))
    h = tuple(rng.randint(-rhs_bound, rhs_bound) for _ in range(n))
    c0 = -sum(l * x for l, x in zip(lam, h)) + rng.randint(1, rhs_bound)
    return shuffled_image(rng, InequalitySystem(n, h_mat + (c,), h + (c0,)))


def shuffled_rows(rng: random.Random, sys: InequalitySystem) -> InequalitySystem:
    """`sys` with its rows in a random order, drawn by one `rng.sample`."""
    order = rng.sample(range(sys.n + 1), sys.n + 1)
    return InequalitySystem(sys.n, tuple(sys.A[i] for i in order), tuple(sys.b[i] for i in order))


def shuffled_image(rng: random.Random, sys: InequalitySystem, entry_bound: int = 10, trans_bound: int = 10) -> InequalitySystem:
    """A random unimodular image of `sys` (`random_unimodular_map`, then `apply_map`) with its rows shuffled."""
    return shuffled_rows(rng, apply_map(sys, random_unimodular_map(rng, sys.n, entry_bound, trans_bound)))


def random_hnf(rng: random.Random, n: int, delta_max: int):
    """Random Hermite-form matrix: random diagonal with product <= delta_max."""
    while True:
        diag = []
        prod = 1
        for _ in range(n):
            choices = [d for d in range(1, delta_max + 1) if prod * d <= delta_max]
            d = rng.choice(choices)
            diag.append(d)
            prod *= d
        if prod >= 1:
            break
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = diag[i]
        for j in range(i):
            m[i][j] = rng.randrange(diag[i])
    return tuple(tuple(row) for row in m)


def vertex_bijection_equivalent(sys_a: InequalitySystem, sys_b: InequalitySystem):
    """Exact equivalence oracle: (U, x0) with U v + x0 mapping A's vertices onto B's, or None.

    An affine map of R^n is fixed by the images of n + 1 affinely independent
    points. So A and B are equivalent iff, for some bijection pi of their
    vertices, the map it fixes has U = D_B D_A^-1 integral with |det U| = 1
    and x0 = pi(v_0) - U v_0 integral, where D_A has the edge vectors
    v_i - v_0 as columns and D_B the edge vectors pi(v_i) - pi(v_0). All
    (n + 1)! bijections are tried; nothing here uses normal forms.
    """
    n = sys_a.n
    if sys_b.n != n:
        return None
    verts_a = vertices(validate_simplex(sys_a))
    verts_b = vertices(validate_simplex(sys_b))
    inv_a = gauss_inverse([[verts_a[j + 1][i] - verts_a[0][i] for j in range(n)] for i in range(n)])
    for image in itertools.permutations(verts_b):
        d_b = [[image[j + 1][i] - image[0][i] for j in range(n)] for i in range(n)]
        u = [[sum(d_b[i][k] * inv_a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if any(Fraction(x).denominator != 1 for row in u for x in row):
            continue
        u = tuple(tuple(int(x) for x in row) for row in u)
        if abs(cofactor_det(u)) != 1:
            continue
        x0 = [Fraction(image[0][i]) - sum(u[i][k] * verts_a[0][k] for k in range(n)) for i in range(n)]
        if all(t.denominator == 1 for t in x0):
            return u, tuple(int(t) for t in x0)
    return None


class RadiusError(DeltaSimplexError):
    """The box-scan oracle did not certify an optimum inside its scan region."""


def corner_minimum_bruteforce(h_mat, h, c, radius: int) -> CornerSolution:
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


def max_minors(a) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All n+1 maximal minors of an (n+1) x n matrix.

    Returns one (base, minor) pair per omitted row, where `base` is the
    ascending tuple of the n row indices forming the minor. Zero minors of
    degenerate bases are included.
    """
    m, n = shape(a)
    if m != n + 1:
        raise ShapeError(f"expected an (n+1) x n matrix, got {m}x{n}")
    out = []
    for omit in range(m):
        base = tuple(i for i in range(m) if i != omit)
        minor = det(tuple(a[i] for i in base))
        out.append((base, minor))
    return tuple(out)


def delta_value(a) -> int:
    """The largest absolute value among the maximal minors of `a`."""
    return max(abs(minor) for _, minor in max_minors(a))


def opposite_vertex(ns: NormalizedSystem):
    """The vertex opposite the c-row facet, v = H^-1 h, as exact rationals."""
    return solve_rational(ns.H, ns.h)


def reduce_residue(h_mat, z):
    """Unique representative of z modulo H Z^n with 0 <= r_i < H_ii (H in Hermite form)."""
    return reduce_rhs(h_mat, z)[0]


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


def vertices(meta) -> tuple[tuple[Fraction, ...], ...]:
    """The vertices of a `SimplexMeta` as tuples of Fractions, read off its reduced integer points."""
    return tuple(tuple(Fraction(x, den) for x in nums) for nums, den in meta.points)


def identity_map(n: int) -> AffineUnimodularMap:
    """The identity x -> I x + 0 of Z^n."""
    return AffineUnimodularMap(identity(n), (0,) * n)


class RefSearch(NamedTuple):
    """What `ref_equivalent_set` found: the records and how it got them."""

    records: dict  # key -> (form, map source -> form), in the order first stored
    key_steps: int  # normalizations run, each base's starting one included
    expanded: int  # bases whose row orders were keyed
    at_start: int  # records first stored as their base's starting form


def ref_equivalent_set(sys: InequalitySystem, rules=(1, 2, 3), rebuild: bool = False) -> RefSearch:
    """The equivalent-set search as one loop that builds the form and the map of every new key.

    The maximal bases are taken least first. Each expanded base stores its
    starting form, if new, and then normalizes the reduced row permutations
    of that form's block matrix, in order, storing each new key's form with
    the map source -> form. `rules` names the skips of
    `equivalent_normalized_set` that the loop applies: 1, a base whose
    starting form an earlier base gave is not expanded; 2, a row order that
    an adjacent swap of two unit-pivot rows turns into one already reached
    is not normalized; 3, the identity order is not normalized.

    A row order is normalized by a key step of the starting form's system
    over that order, or with `rebuild` by building the row-permuted block
    system and normalizing it over range(n).
    """
    prim = primitivize(sys)
    meta = validate_simplex(prim)
    n = prim.n
    in_order = tuple(range(n))
    records = {}
    starts = set()
    steps = expanded = at_start = 0
    for base in sorted(meta.max_det_bases):
        start = key_step(prim, base, meta.delta)
        steps += 1
        if 1 in rules and start.key in starts:
            continue
        starts.add(start.key)
        expanded += 1
        ns0, m0 = start.form(), start.map()
        if start.key not in records:
            at_start += 1
            records[start.key] = (ns0, inverse(m0))
        sys0 = ns0.system()
        units = {in_order: frozenset(range(ns0.s))} if 3 in rules else {}
        for perm in reduced_permutations(ns0.H):
            if 3 in rules and perm == in_order:
                continue
            twin = _unit_swap_twin(perm, units) if 2 in rules else None
            if twin is not None:
                units[perm] = units[twin]
                continue
            if rebuild:
                rows = [ns0.H[p] for p in perm] + [ns0.c]
                rhs = [ns0.h[p] for p in perm] + [ns0.c0]
                step = key_step(InequalitySystem(n, rows, rhs), in_order, meta.delta)
                units[perm] = frozenset(perm[r] for r in step.row_src[: step.s])
            else:
                step = key_step(sys0, perm, meta.delta)
                units[perm] = frozenset(step.row_src[: step.s])
            steps += 1
            if step.key not in records:
                records[step.key] = (step.form(), inverse(compose(m0, step.map())))
    return RefSearch(records, steps, expanded, at_start)


def ref_row_order_keys(prim: InequalitySystem, meta: SimplexMeta) -> set:
    """The `key_step` keys of primitive `prim` over every maximal base in every row order.

    With `meta = validate_simplex(prim)`. Every form of the class is one of
    these: a unimodular map keeps the rows' order and their maximal bases,
    and a form is the key step at some ordered maximal base. So this is the
    whole class's key set, at n! key steps per maximal base.
    """
    return {
        key_step(prim, order, meta.delta).key
        for base in meta.max_det_bases
        for order in itertools.permutations(base)
    }


def ref_lattice_invariant(prim: InequalitySystem, meta: SimplexMeta) -> tuple:
    """(volume, facet pairs, edge lengths) of primitive `prim`, with `meta = validate_simplex(prim)`.

    The class invariant that `equivalence._shard_key` reads off a form,
    computed here from the vertices instead, as an independent oracle:
    - the volume |det [A | b]|: the slack of row 0 at vertex 0 is
      det [A | b] / minor_0 up to sign, so it is
      |minor_0| |b_0 d_0 - a_0 . nums_0| / d_0;
    - the facet pairs, the sorted (|minor_i|, d_i), d_i the reduced
      denominator of vertex i (opposite row i);
    - the edge lengths, the sorted lattice lengths of p_i - p_j as reduced
      (numerator, denominator): content(d_i d_j (p_i - p_j)) / (d_i d_j)
      in lowest terms.
    """
    points = meta.points
    nums0, d0 = points[0]
    volume = abs(meta.minors[0] * (prim.b[0] * d0 - sum(a * x for a, x in zip(prim.A[0], nums0)))) // d0
    facets = tuple(sorted(zip(map(abs, meta.minors), (d for _, d in points))))
    edges = []
    for (nums_i, d_i), (nums_j, d_j) in itertools.combinations(points, 2):
        den = d_i * d_j
        content = math.gcd(*(x * d_j - y * d_i for x, y in zip(nums_i, nums_j)))
        g = math.gcd(content, den)
        edges.append((content // g, den // g))
    return volume, facets, tuple(sorted(edges))


def ref_dedup_families(records: list) -> list:
    """`dedup_families` as one walk over all records, each search run to its end.

    The keys are walked in ascending order; each still-indexed record gets
    the record check and its whole `class_keys` set, which must hold its own
    key, and every other key of that set is removed from the index.
    """
    index = {}
    for rec in records:
        index.setdefault(key_tuple(rec.ns), rec)
    for key in sorted(index):
        rec = index.get(key)
        if rec is None:
            continue
        problem, meta = record_problem(rec.ns, rec.family)
        if problem is not None:
            raise InvariantViolation(f"record {canonical_key(rec.ns)}: {problem} [provenance {rec.provenance}]")
        found = class_keys(rec.system(), meta)
        if key not in found:
            raise InvariantViolation("record's own canonical form missing from its equivalent set")
        for other in found - {key}:
            index.pop(other, None)
    return [index[key] for key in sorted(index)]


# Reference kernels: the plain versions that the package's kernels replaced.


def ref_transpose(m):
    return tuple(tuple(col) for col in zip(*m)) if m else ()


def ref_mat_mul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ShapeError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = ref_transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def ref_mat_vec(a, x):
    ra, ca = shape(a)
    if ca != len(x):
        raise ShapeError(f"cannot apply {ra}x{ca} to a vector of length {len(x)}")
    return tuple(sum(e * v for e, v in zip(row, x)) for row in a)


def ref_dot(u, v):
    if len(u) != len(v):
        raise ShapeError("dot product of vectors with different lengths")
    return sum(x * y for x, y in zip(u, v))


def ref_adjugate(m):
    """`adjugate` as one Bareiss Gauss-Jordan pass on the n x 2n tableau [m | I].

    A singular m gets `cofactor_adjugate`, which needs no package determinant.
    """
    r, c = shape(m)
    if r != c:
        raise ShapeError(f"adjugate of a non-square {r}x{c} matrix")
    n = r
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return cofactor_adjugate(m)
        pivot_row = a[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1 :]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                row[k + 1 :] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pivot
    return tuple(tuple(sign * x for x in row[n:]) for row in a)


def ref_primitivize(sys: InequalitySystem) -> InequalitySystem:
    """Divide every row of (A | b) by its gcd, always building a new system."""
    rows = []
    rhs = []
    for a, b0 in sys.rows():
        g = math.gcd(*a, b0)
        if g == 0:
            raise InvalidSystemError("system contains an all-zero row")
        rows.append(tuple(x // g for x in a))
        rhs.append(b0 // g)
    return InequalitySystem(sys.n, rows, rhs)


def ref_validate_simplex(sys: InequalitySystem) -> SimplexMeta:
    """`validate_simplex` with every base built and signs from (-1) ** (i + n)."""
    n = sys.n
    adj = adjugate(tuple(row + (bi,) for row, bi in zip(sys.A, sys.b)))
    last = adj[n]
    det_m = ref_dot(sys.b, last)
    minors = tuple((-1) ** (i + n) * x for i, x in enumerate(last))
    bases = tuple(tuple(r for r in range(n + 1) if r != i) for i in range(n + 1))
    for base, minor in zip(bases, minors):
        if minor == 0:
            raise NotASimplexError(f"not a simplex (rank/degeneracy): zero minor at base {base}")
    for omit, x in enumerate(last):
        if det_m * x <= 0:
            raise NotASimplexError(f"empty or unbounded or lower-dimensional: row {omit} not strictly satisfied")
    delta = max(map(abs, minors))
    points = tuple(reduced_point(tuple(-adj[j][i] for j in range(n)), last[i]) for i in range(n + 1))
    max_bases = tuple(base for base, minor in zip(bases, minors) if abs(minor) == delta)
    return SimplexMeta(delta=delta, points=points, max_det_bases=max_bases, minors=minors)


def ref_is_hnf_matrix(m) -> bool:
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


def ref_key_step(prim: InequalitySystem, base, delta: int) -> KeyStep:
    """`key_step` with c and c0 as generator sums and H, c and U rebuilt under every sigma."""
    n = prim.n
    omitted = next(i for i in range(n + 1) if i not in base)
    h_mat, u = hnf(tuple(prim.A[i] for i in base))
    a_omitted = prim.A[omitted]
    c = [sum(a_omitted[i] * u[i][j] for i in range(n)) for j in range(n)]
    unit = [i for i in range(n) if h_mat[i][i] == 1]
    rest = [i for i in range(n) if h_mat[i][i] != 1]
    unit.sort(key=lambda j: (tuple(h_mat[r][j] for r in rest), c[j]))
    sigma = unit + rest
    h_mat = tuple(tuple(h_mat[a][b] for b in sigma) for a in sigma)
    c = tuple(c[j] for j in sigma)
    u = tuple(tuple(row[j] for j in sigma) for row in u)
    row_src = tuple(base[a] for a in sigma) + (omitted,)
    if not ref_is_hnf_matrix(h_mat):
        raise PreconditionError("matrix is not in Hermite form")
    h, x0 = _reduce_hnf_rhs(h_mat, [prim.b[i] for i in row_src[:n]])
    c0 = prim.b[omitted] - sum(ci * xi for ci, xi in zip(c, x0))
    key = _flat_key(n, delta, h_mat + (c,), h + (c0,))
    return KeyStep(key, n, delta, len(unit), h_mat, h, c, c0, u, x0, row_src)


def ref_validate_normalized(ns: NormalizedSystem) -> tuple[bool, tuple[str, ...]]:
    """`validate_normalized` with det(H) by Bareiss on every path."""
    bad = []
    n, s, k = ns.n, ns.s, ns.k
    h_mat, h, c = ns.H, ns.h, ns.c
    if not ref_is_hnf_matrix(h_mat):
        bad.append("hnf-form")
    det_h = det(h_mat)
    if ns.delta <= 0 or det_h != ns.delta:
        bad.append("determinant")
    w = tuple(-ref_dot(col, c) for col in ref_transpose(adjugate(h_mat)))
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
