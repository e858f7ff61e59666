import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasimplex import (
    InequalitySystem,
    InvalidSystemError,
    NormalizedSystem,
    PreconditionError,
    canonical_key,
    check_equivalence,
    key_tuple,
    normalize,
    normalized_from_dict,
    normalized_to_dict,
    primitivize,
    reduce_rhs,
    validate_normalized,
)
from deltasimplex.exact_linalg import det
from deltasimplex.normal_form import is_hnf_matrix, paral_weights
from deltasimplex.simplex_model import apply_map

from helpers import (
    delta_value,
    max_minors,
    opposite_vertex,
    parse_canonical_key,
    random_hnf,
    random_int_matrix,
    random_simplex,
)


def test_primitivize_rows():
    sys = InequalitySystem(2, ((2, 0), (0, 2), (-3, -6)), (0, 4, -9))
    out = primitivize(sys)
    assert out.A == ((1, 0), (0, 1), (-1, -2))
    assert out.b == (0, 2, -3)


def test_primitivize_noop_on_coprime_row():
    sys = InequalitySystem(2, ((2, 4), (0, 1), (-1, -1)), (3, 0, 0))
    assert primitivize(sys).A[0] == (2, 4)


def test_primitivize_zero_row():
    sys = InequalitySystem(2, ((0, 0), (0, 1), (1, 1)), (0, 0, 1))
    with pytest.raises(InvalidSystemError):
        primitivize(sys)


def test_reduce_rhs_examples():
    assert reduce_rhs(((2,),), (5,)) == ((1,), (2,))
    assert reduce_rhs(((1, 0), (1, 2)), (3, 4)) == ((0, 1), (3, 0))
    assert reduce_rhs(((1, 0), (1, 2)), (0, 1)) == ((0, 1), (0, 0))


def test_reduce_rhs_requires_hnf():
    with pytest.raises(PreconditionError):
        reduce_rhs(((0, 1), (1, 0)), (0, 0))


@given(st.integers(1, 4), st.integers(0, 4000))
@settings(max_examples=80, deadline=None)
def test_reduce_rhs_uniqueness(n, seed):
    rng = random.Random(seed)
    h_mat = random_hnf(rng, n, 12)
    b = tuple(rng.randint(-30, 30) for _ in range(n))
    h, x0 = reduce_rhs(h_mat, b)
    assert all(0 <= h[i] < h_mat[i][i] for i in range(n))
    assert h == tuple(b[i] - sum(h_mat[i][j] * x0[j] for j in range(n)) for i in range(n))
    for j in range(n):
        for eps in (-1, 1):
            x_alt = tuple(x0[i] + (eps if i == j else 0) for i in range(n))
            h_alt = tuple(b[i] - sum(h_mat[i][r] * x_alt[r] for r in range(n)) for i in range(n))
            assert any(not 0 <= h_alt[i] < h_mat[i][i] for i in range(n))


def test_normalize_standard_triangle(triangle):
    ns, amap, perm = normalize(triangle, (0, 1))
    assert ns == NormalizedSystem(
        n=2, s=2, k=0, H=((1, 0), (0, 1)), h=(0, 0), c=(-1, -1), c0=1, delta=1
    )
    assert amap.U == ((-1, 0), (0, -1))
    assert amap.x0 == (0, 0)
    assert perm == (0, 1, 2)
    assert apply_map(triangle, amap) == ns.system()


def test_normalize_idempotent():
    # a genuine normalized system (a delta=3 atlas representative)
    ns0 = NormalizedSystem(n=2, s=1, k=1, H=((1, 0), (0, 3)), h=(0, 2), c=(-1, -3), c0=-1, delta=3)
    ok, violated = validate_normalized(ns0)
    assert ok, violated
    ns, amap, perm = normalize(ns0.system(), (0, 1))
    assert ns == ns0
    assert amap.U == ((1, 0), (0, 1)) and amap.x0 == (0, 0)
    assert perm == (0, 1, 2)


def test_normalize_segment_example():
    # the segment [1/3, 1/2] over its maximal base
    sys = InequalitySystem(1, ((-3,), (2,)), (-1, 1))
    ns, amap, perm = normalize(sys, (0,))
    assert ns.H == ((3,),)
    assert ns.h == (2,)
    assert ns.c == (-2,)
    assert ns.c0 == -1
    ok, violated = validate_normalized(ns)
    assert ok, violated
    result = check_equivalence(sys, ns.system())
    assert result.equivalent


def test_normalize_rejects_non_maximal_base():
    sys = InequalitySystem(1, ((-3,), (2,)), (-1, 1))
    with pytest.raises(PreconditionError):
        normalize(sys, (1,))  # |det| = 2 < 3


@pytest.mark.parametrize("base", [(0.9, 1.2), (0, 1.0), (True, 1), (0, False), ("0", 1)])
def test_normalize_rejects_base_entries_that_are_not_ints(triangle, base):
    # Truncating them would normalize (0.9, 1.2) over base (0, 1).
    with pytest.raises(PreconditionError, match="integers"):
        normalize(triangle, base)


def test_normalize_apply_map_identity_up_to_row_scaling():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 4)
        sys = random_simplex(rng, n)
        meta_bases = None
        from deltasimplex import validate_simplex

        prim = primitivize(sys)
        meta = validate_simplex(prim)
        base = rng.choice(meta.max_det_bases)
        ns, amap, perm = normalize(sys, base)
        moved = apply_map(sys, amap)
        out_rows = ns.system().rows()
        for i in range(n + 1):
            src = perm[i]
            row, rhs = moved.A[src], moved.b[src]
            import math

            g = 0
            for x in row:
                g = math.gcd(g, x)
            g = math.gcd(g, rhs)
            assert g > 0
            assert tuple(x // g for x in row) == out_rows[i][0]
            assert rhs // g == out_rows[i][1]


def test_validate_normalized_good():
    ns = NormalizedSystem(n=2, s=2, k=0, H=((1, 0), (0, 1)), h=(0, 0), c=(-1, -1), c0=1, delta=1)
    ok, violated = validate_normalized(ns)
    assert ok and violated == ()


def test_validate_normalized_paral_violation():
    ns = NormalizedSystem(n=2, s=2, k=0, H=((1, 0), (0, 1)), h=(0, 0), c=(-2, -1), c0=1, delta=1)
    ok, violated = validate_normalized(ns)
    assert not ok
    assert "paral-membership" in violated


def test_validate_normalized_rhs_violation():
    ns = NormalizedSystem(n=2, s=2, k=0, H=((1, 0), (0, 1)), h=(0, 1), c=(-1, -1), c0=1, delta=1)
    ok, violated = validate_normalized(ns)
    assert not ok
    assert "rhs-range" in violated


def test_validate_normalized_delta_mismatch():
    ns = NormalizedSystem(n=1, s=0, k=1, H=((3,),), h=(2,), c=(-2,), c0=-1, delta=3)
    ok, _ = validate_normalized(ns)
    assert ok
    bad = NormalizedSystem(n=1, s=0, k=1, H=((3,),), h=(2,), c=(-2,), c0=-1, delta=2)
    ok, violated = validate_normalized(bad)
    assert not ok


def _malformed_normalized(rng: random.Random, kind: str) -> NormalizedSystem:
    """A NormalizedSystem that breaks one assumption of the form on purpose."""
    n = rng.randint(1, 4)
    h_mat = random_hnf(rng, n, 12)
    d = math.prod(h_mat[i][i] for i in range(n))
    c = tuple(rng.randint(-d, 0) for _ in range(n))
    delta = d
    if kind == "singular":
        rows = [list(row) for row in random_int_matrix(rng, n, n, 3)]
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i] = [rng.choice((0, 1, -2)) * x for x in rows[j]] if i != j else [0] * n
        h_mat = tuple(tuple(row) for row in rows)
        delta = rng.choice((delta_value(h_mat + (c,)), rng.randint(0, 9)))
    elif kind == "outside":
        c = tuple(rng.randint(-2 * d - 2, 2 * d + 2) for _ in range(n))
    elif kind == "wrong-delta":
        delta = d + rng.choice((-1, 1, 2, -d))
    h = tuple(rng.randrange(max(1, abs(h_mat[i][i]))) for i in range(n))
    s = rng.randint(0, n)
    return NormalizedSystem(n=n, s=s, k=n - s, H=h_mat, h=h, c=c, c0=rng.randint(-3, 3), delta=delta)


@pytest.mark.parametrize("seed", range(3))
def test_delta_label_agrees_with_full_matrix_minors(seed):
    # The validator reads the minors of [H; c] off det(H) and the paral
    # weights; the reference takes every maximal minor of the full matrix.
    rng = random.Random(seed)
    seen = set()
    for _ in range(300):
        kind = rng.choice(("singular", "outside", "wrong-delta"))
        ns = _malformed_normalized(rng, kind)
        flagged = "delta-of-full-matrix" in validate_normalized(ns)[1]
        assert flagged == (delta_value(ns.full_matrix()) != ns.delta), ns
        seen.add((kind, flagged))
    # Both answers occur for singular H and for c outside the parallelepiped.
    assert {("singular", False), ("singular", True), ("outside", False), ("outside", True), ("wrong-delta", True)} <= seen


def test_paral_weights_are_full_matrix_minors():
    # Replacing row i of H by c gives the minor -w_i (up to the sign of moving
    # c into place); omitting c gives det(H). Singular H included.
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        h_mat = random_int_matrix(rng, n, n, 2)
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        minors = [abs(m) for _, m in max_minors(h_mat + (c,))]
        assert minors == [abs(w) for w in paral_weights(h_mat, c)] + [abs(det(h_mat))]


def test_canonical_key_round_trip():
    ns = NormalizedSystem(n=2, s=1, k=1, H=((1, 0), (1, 2)), h=(0, 1), c=(-1, -1), c0=-1, delta=2)
    key = canonical_key(ns)
    assert parse_canonical_key(key) == ns
    other = NormalizedSystem(n=2, s=1, k=1, H=((1, 0), (1, 2)), h=(0, 1), c=(-1, -1), c0=0, delta=2)
    assert canonical_key(other) != key


def test_key_order_is_integer_lexicographic():
    a = NormalizedSystem(n=1, s=0, k=1, H=((2,),), h=(1,), c=(-1,), c0=0, delta=2)
    b = NormalizedSystem(n=1, s=0, k=1, H=((12,),), h=(1,), c=(-1,), c0=0, delta=12)
    # string comparison would put "12..." before "2...", the key tuple must not
    assert key_tuple(a) < key_tuple(b)


def test_normalized_json_round_trip():
    ns = NormalizedSystem(n=2, s=1, k=1, H=((1, 0), (1, 2)), h=(0, 1), c=(-1, -1), c0=-1, delta=2)
    data = normalized_to_dict(ns)
    assert data["format"] == "delta-simplex/normalized-v1"
    assert normalized_from_dict(data) == ns


def test_is_hnf_matrix():
    assert is_hnf_matrix(((1, 0), (1, 2)))
    assert not is_hnf_matrix(((1, 1), (0, 2)))
    assert not is_hnf_matrix(((0, 0), (0, 1)))


def test_opposite_vertex():
    ns = NormalizedSystem(n=1, s=0, k=1, H=((3,),), h=(2,), c=(-3,), c0=-1, delta=3)
    assert opposite_vertex(ns) == (Fraction(2, 3),)
