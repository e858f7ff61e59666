"""The exact kernels against the plain reference versions in helpers.py.

Seeded random systems (n = 1..6), the normal forms of their maximal bases
and corrupted copies of those forms, and seeded square matrices built to
make the adjugate's elimination swap rows, go through each kernel and its
reference (`helpers.ref_*`). Each pair must return equal values, or raise
the same exception with the same message, or give the same violation
labels.
"""

import random

import pytest

from deltasimplex import (
    AffineUnimodularMap,
    DeltaSimplexError,
    InequalitySystem,
    NormalizedSystem,
    apply_map,
    validate_normalized,
)
from deltasimplex.exact_linalg import adjugate, det, dot, mat_mul, mat_vec, transpose
from deltasimplex.normal_form import is_hnf_matrix, key_step, primitivize
from deltasimplex.simplex_model import validate_simplex

from helpers import (
    cofactor_det,
    constructed_simplex,
    random_int_matrix,
    ref_adjugate,
    ref_dot,
    ref_is_hnf_matrix,
    ref_key_step,
    ref_mat_mul,
    ref_mat_vec,
    ref_primitivize,
    ref_transpose,
    ref_validate_normalized,
    ref_validate_simplex,
)

SYSTEMS_PER_DIM = 200  # 1,200 systems over n = 1..6


def outcome(f, *args):
    """The value of f(*args), or the type and message of the package error it raises."""
    try:
        return ("value", f(*args))
    except DeltaSimplexError as exc:
        return ("raise", type(exc), str(exc))


def same(f, ref, *args):
    got, want = outcome(f, *args), outcome(ref, *args)
    assert got == want, (f.__name__, args)
    return got


def _random_simplex(rng: random.Random, n: int) -> InequalitySystem:
    """A simplex by construction, since rejection sampling is slow at n = 6.

    The last row is minus a positive combination of n independent random
    rows, so the rows positively span R^n, and b puts a random integer point
    strictly inside every half-space.
    """
    while True:
        a = random_int_matrix(rng, n, n, 4)
        weights = [rng.randint(1, 2) for _ in range(n)]
        last = tuple(-sum(w * row[j] for w, row in zip(weights, a)) for j in range(n))
        point = [rng.randint(-3, 3) for _ in range(n)]
        rows = a + (last,)
        b = [sum(x * p for x, p in zip(row, point)) + rng.randint(1, 4) for row in rows]
        sys = InequalitySystem(n, rows, b)
        if outcome(validate_simplex, sys)[0] == "value":
            return sys


def _random_system(rng: random.Random, n: int, i: int) -> InequalitySystem:
    """Every third draw each: a raw random system (mostly not a simplex), a simplex, a simplex with a scaled row."""
    kind = i % 3
    if kind == 0:
        return InequalitySystem(n, random_int_matrix(rng, n + 1, n, 3), [rng.randint(-3, 3) for _ in range(n + 1)])
    sys = _random_simplex(rng, n)
    if kind == 1:
        return sys
    r = rng.randrange(n + 1)
    k = rng.choice((2, 3, -1))
    a = tuple(tuple(k * x for x in row) if j == r else row for j, row in enumerate(sys.A))
    b = tuple(k * x if j == r else x for j, x in enumerate(sys.b))
    return InequalitySystem(n, a, b)


def _corrupted(rng: random.Random, ns: NormalizedSystem):
    """Copies of a valid form with one defect each: a non-Hermite H, a wrong delta, a non-primitive row, a zero minor."""
    n = ns.n
    fields = ns._asdict()

    def with_(**changes):
        return NormalizedSystem(**{**fields, **changes})

    def set_h(i, j, x):
        return tuple(tuple(x if (r, col) == (i, j) else v for col, v in enumerate(row)) for r, row in enumerate(ns.H))

    i = rng.randrange(n)
    j = rng.randrange(n)
    if j > i:
        yield with_(H=set_h(i, j, rng.choice((1, -1, 2))))  # above the diagonal
    elif j < i:
        yield with_(H=set_h(i, j, rng.choice((-1, ns.H[i][i], ns.H[i][i] + 1))))  # not reduced
    yield with_(H=set_h(i, i, rng.choice((0, -1, -ns.H[i][i]))))  # diagonal not positive
    yield with_(delta=ns.delta + 1)
    yield with_(delta=ns.delta - 1)
    yield with_(delta=2 * ns.delta)
    # Row i of (H | h) or the c row doubled.
    yield with_(H=tuple(tuple(2 * x for x in row) if r == i else row for r, row in enumerate(ns.H)),
                h=tuple(2 * x if r == i else x for r, x in enumerate(ns.h)))
    yield with_(c=tuple(2 * x for x in ns.c), c0=2 * ns.c0)
    # c equal to a row of H: n - 1 of the minors w vanish (all of them at n = 1 with c = 0).
    yield with_(c=ns.H[i] if n > 1 else (0,), c0=ns.h[i] + 1)
    if ns.s != ns.k:
        yield with_(s=ns.k, k=ns.s)  # block sizes swapped


def _check_corrupted(rng: random.Random, ns: NormalizedSystem) -> None:
    for bad in _corrupted(rng, ns):
        same(is_hnf_matrix, ref_is_hnf_matrix, bad.H)
        assert same(validate_normalized, ref_validate_normalized, bad)[1][0] is False, bad
        same(validate_simplex, ref_validate_simplex, bad.system())


@pytest.mark.parametrize("n", range(1, 7))
def test_kernels_match_their_references_on_random_systems(n):
    rng = random.Random(2400 + n)
    simplices = 0
    for i in range(SYSTEMS_PER_DIM):
        sys = _random_system(rng, n, i)
        same(validate_simplex, ref_validate_simplex, sys)
        kind, prim, *_ = same(primitivize, ref_primitivize, sys)
        if kind != "value":
            continue
        kind, meta, *_ = same(validate_simplex, ref_validate_simplex, prim)
        if kind != "value":
            continue
        simplices += 1
        for base in meta.max_det_bases:
            step = same(key_step, ref_key_step, prim, base, meta.delta)[1]
            ns = step.form()
            same(validate_normalized, ref_validate_normalized, ns)
            if base == meta.max_det_bases[0]:
                _check_corrupted(rng, ns)
            # The base in another order, and the form under a row order of the search.
            shuffled = tuple(rng.sample(base, n))
            same(key_step, ref_key_step, prim, shuffled, meta.delta)
            same(key_step, ref_key_step, ns.system(), tuple(rng.sample(range(n), n)), meta.delta)
            same(key_step, ref_key_step, ns.system(), tuple(range(n)), meta.delta)
    assert simplices >= SYSTEMS_PER_DIM // 2


# Non-unit pivots of the constructed Hermite blocks, placed among unit ones.
PIVOTS = ((2,), (3,), (2, 2), (4,), (2, 3))


@pytest.mark.parametrize("n", range(6, 13))
def test_key_step_builds_what_the_checked_constructors_build(n):
    # `key_step` trusts the Hermite form and |det U| = 1 that `hnf` checked,
    # and `form()` and `map()` skip the public constructors' checks. On
    # constructed simplices with non-unit pivots each step must equal the
    # reference step, which checks the Hermite form itself; the form and the
    # map must equal what the checked constructors build from the same
    # fields; |det U| must be 1 by cofactor expansion; and the map must carry
    # the form onto its source, row by row.
    rng = random.Random(2600 + n)
    for pivots in PIVOTS:
        diag = [1] * n
        for p, i in zip(pivots, rng.sample(range(n), len(pivots))):
            diag[i] = p
        prim = primitivize(constructed_simplex(rng, diag))
        meta = validate_simplex(prim)
        for base in meta.max_det_bases:
            step = same(key_step, ref_key_step, prim, base, meta.delta)[1]
            form, amap = step.form(), step.map()
            assert type(form) is NormalizedSystem and type(amap) is AffineUnimodularMap
            assert form == NormalizedSystem(n, step.s, n - step.s, step.H, step.h, step.c, step.c0, meta.delta)
            assert amap == AffineUnimodularMap(step.U, mat_vec(step.U, step.x0))
            assert abs(cofactor_det(amap.U)) == 1
            moved = apply_map(prim, amap)
            assert tuple(moved.rows()[i] for i in step.row_src) == form.system().rows()


def test_linear_algebra_kernels_match_their_references():
    rng = random.Random(24)
    fixed = [
        ((), ()),
        (((5,),), ((-3,),)),
        (((),), ()),
        (((), ()), ()),
        (((1, 2),), ((3,), (4,))),
        (((1, 2),), ((3,),)),
    ]
    for a, b in fixed:
        same(mat_mul, ref_mat_mul, a, b)
        same(transpose, ref_transpose, a)
    for u, v in (((), ()), ((7,), (-2,)), ((1,), ()), ((1, 2), (3,))):
        same(dot, ref_dot, u, v)
        same(mat_vec, ref_mat_vec, (u,), v)
    same(mat_vec, ref_mat_vec, (), ())
    for _ in range(1000):
        rows, inner, cols = (rng.randint(0, 4) for _ in range(3))
        bound = rng.choice((1, 9, 10**20))
        a = random_int_matrix(rng, rows, inner, bound)
        b = random_int_matrix(rng, inner + rng.choice((0, 0, 0, 1)), cols, bound)
        same(mat_mul, ref_mat_mul, a, b)
        same(transpose, ref_transpose, a)
        x = tuple(rng.randint(-bound, bound) for _ in range(inner + rng.choice((0, 0, -1))))
        same(mat_vec, ref_mat_vec, a, x)
        u = tuple(rng.randint(-bound, bound) for _ in range(inner))
        same(dot, ref_dot, u, x)


def _swapping_matrices(rng: random.Random, n: int, bound: int):
    """Square matrices whose elimination swaps rows, by construction, and singular ones.

    The rows of an upper triangular matrix U with a nonzero diagonal, in
    some order: at step k the rows below the pivot that are not yet
    eliminated have 0 in column k, except U_k, so the pass swaps exactly
    when U_k is not already in row k. With a 0 at U_kk the pivot column k
    vanishes, after the swaps before it, and the cofactor fallback runs.
    """

    def nonzero():
        return rng.choice((-1, 1)) * rng.randint(1, bound)

    def upper(order, zero_at=None):
        def entry(r, j):
            if j == r:
                return 0 if r == zero_at else nonzero()
            return 0 if j < r else rng.randint(-bound, bound)

        rows = [tuple(entry(r, j) for j in range(n)) for r in range(n)]
        return tuple(rows[r] for r in order)

    ident = list(range(n))
    yield upper(ident)  # no swap
    if n >= 2:
        j = rng.randrange(n - 1)
        yield upper(ident[:j] + [j + 1, j] + ident[j + 2 :])  # a swap at step j
        yield upper([n - 1] + ident[:-1])  # a swap at every step but the last, which has no row below
        yield upper([1, 0] + ident[2:], zero_at=rng.randrange(1, n))  # singular after the swap at step 0
        # Anti-diagonal: swaps at steps 0 .. n // 2 - 1.
        yield tuple(tuple(nonzero() if i + j == n - 1 else 0 for j in range(n)) for i in range(n))
        # Banded, zero diagonal: swaps at every other step; singular for odd n.
        yield tuple(tuple(nonzero() if abs(i - j) == 1 else 0 for j in range(n)) for i in range(n))
        # Dense, with column k a combination of columns 0..k-1 and a 0 pivot at step 0.
        a = [list(row) for row in random_int_matrix(rng, n, n, bound)]
        a[0][0] = 0
        k = rng.randrange(1, n)
        weights = [rng.randint(-2, 2) for _ in range(k)]
        for row in a:
            row[k] = sum(w * x for w, x in zip(weights, row))
        yield tuple(map(tuple, a))
    if n >= 3:
        j = rng.randrange(n - 2)
        yield upper(ident[:j] + [j + 1, j + 2, j] + ident[j + 3 :])  # swaps at steps j and j + 1
    if n >= 4:
        yield upper([1, 0] + ident[2:-2] + [n - 1, n - 2])  # swaps at steps 0 and n - 2


@pytest.mark.parametrize("n", range(10))
def test_adjugate_matches_the_two_block_pass(n):
    # The adjugate runs its Bareiss pass in an n x n tableau and undoes its row
    # swaps as column swaps; the reference runs it on [m | I]. The determinant
    # is the same pass's last pivot times the swaps' sign, and must equal the
    # cofactor expansion. Matrices built to swap at one, two and every step,
    # singular ones whose pivot column vanishes after a swap, and dense random
    # ones with entries up to 10^20; n = 0 is the empty matrix, of det 1.
    rng = random.Random(2700 + n)
    cases = 0
    for bound in (1, 9, 10**20):
        for _ in range(8):
            for m in _swapping_matrices(rng, n, bound):
                same(adjugate, ref_adjugate, m)
                assert det(m) == cofactor_det(m)
                cases += 1
            m = random_int_matrix(rng, n, n, bound)
            if n:
                m = tuple(tuple(x if rng.random() < 0.6 else 0 for x in row) for row in m)
            same(adjugate, ref_adjugate, m)
            assert det(m) == cofactor_det(m)
    for m in (((1, 2),), ((1,), (2,)), ((1, 2), (3, 4), (5, 6))):
        same(adjugate, ref_adjugate, m)
    assert cases >= 24
