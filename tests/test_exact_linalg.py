import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasimplex import (
    InvariantViolation,
    RankError,
    ShapeError,
    SingularityError,
    adjugate,
    det,
    hnf,
    identity,
    is_unimodular,
    matrix,
    solve_rational,
    unimodular_inverse,
)
from deltasimplex import exact_linalg
from deltasimplex.exact_linalg import _adjugate_cached, mat_mul, shape, transpose
from fractions import Fraction

from helpers import (
    cofactor_adjugate,
    cofactor_det,
    delta_value,
    gauss_inverse,
    gauss_solve,
    max_minors,
    random_int_matrix,
    random_unimodular_map,
)

small_matrices = st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def test_det_identity():
    assert det(identity(3)) == 1


def test_matrix_keeps_tuple_matrices_and_checks_shape():
    m = ((1, 2), (3, 4))
    assert matrix(m) is m
    assert matrix([[1, 2], [3, 4]]) == m
    assert matrix(()) == ()
    with pytest.raises(ShapeError):
        matrix(((1, 2), (3,)))
    with pytest.raises(ShapeError):
        matrix([(1, 2), [3]])


def test_det_triangular():
    assert det(((1, 0), (1, 2))) == 2


def test_det_non_square_raises():
    with pytest.raises(ShapeError):
        det(((1, 2, 3), (4, 5, 6)))


def test_det_against_cofactor_oracle():
    rng = random.Random(101)
    for _ in range(30):
        m = random_int_matrix(rng, 5, 5, 9)
        assert det(m) == cofactor_det(m)


def test_det_cofactor_oracle_up_to_six():
    rng = random.Random(202)
    for n in range(1, 7):
        for _ in range(10):
            m = random_int_matrix(rng, n, n, 9)
            assert det(m) == cofactor_det(m)


def test_adjugate_identity():
    for n in (1, 2, 4):
        assert adjugate(identity(n)) == identity(n)


def test_adjugate_example():
    m = ((1, 0), (1, 2))
    adj = adjugate(m)
    assert adj == ((2, 0), (-1, 1))
    assert mat_mul(m, adj) == ((2, 0), (0, 2))


def test_adjugate_singular():
    m = ((1, 2), (2, 4))
    adj = adjugate(m)
    assert mat_mul(m, adj) == ((0, 0), (0, 0))


def _random_rank(rng, n, rank):
    """Product of random n x rank and rank x n factors; rank <= `rank`."""
    x = random_int_matrix(rng, n, rank, 3)
    y = random_int_matrix(rng, rank, n, 3)
    return tuple(tuple(sum(x[i][t] * y[t][j] for t in range(rank)) for j in range(n)) for i in range(n))


@pytest.mark.parametrize("seed", range(3))
def test_adjugate_matches_cofactor_reference(seed):
    # Entry-by-entry comparison with the cofactor definition for full rank,
    # rank n-1 (adjugate of rank one) and rank <= n-2 (zero adjugate), so the
    # Gauss-Jordan pass and its singular fallback both meet the reference, and
    # so does the determinant that the same pass returns.
    rng = random.Random(seed)
    for n in range(1, 10):
        cases = []
        while len(cases) < 2:
            m = random_int_matrix(rng, n, n, 3)
            if cofactor_det(m) != 0:
                cases.append(m)
        while len(cases) < 4:
            m = _random_rank(rng, n, n - 1)
            if any(any(row) for row in cofactor_adjugate(m)):
                cases.append(m)
        if n >= 2:
            cases += [_random_rank(rng, n, rng.randint(0, n - 2)) for _ in range(2)]
        for m in cases:
            _adjugate_cached.cache_clear()
            assert adjugate(m) == cofactor_adjugate(m)
            assert det(m) == cofactor_det(m)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_adjugate_fundamental_identity(rows):
    m = matrix(rows)
    n = len(m)
    d = det(m)
    expected = tuple(tuple(d if i == j else 0 for j in range(n)) for i in range(n))
    assert mat_mul(m, adjugate(m)) == expected
    assert mat_mul(adjugate(m), m) == expected


def test_hnf_idempotent_on_hnf_input():
    h = ((2, 0), (1, 3))
    h_full, q = hnf(h)
    assert h_full == h
    assert q == identity(2)


def test_hnf_swap_example():
    a = ((0, 1), (1, 0))
    h_full, q = hnf(a)
    assert h_full == identity(2)
    assert q == ((0, 1), (1, 0))
    assert mat_mul(h_full, q) == a


def _random_full_rank(rng, m, n):
    while True:
        a = random_int_matrix(rng, m, n, 6)
        top = tuple(a[i] for i in range(n))
        if det(top) != 0:
            return a


def test_hnf_random_properties():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = _random_full_rank(rng, n + 1, n)
        h_full, u = hnf(a)
        assert mat_mul(a, u) == h_full
        assert abs(det(u)) == 1
        top = tuple(h_full[i] for i in range(n))
        for i in range(n):
            assert top[i][i] > 0
            for j in range(n):
                if j > i:
                    assert top[i][j] == 0
                elif j < i:
                    assert 0 <= top[i][j] < top[i][i]
        # entry bound from the maximal-minor value of the input
        assert max(abs(x) for row in h_full for x in row) <= delta_value(a)
        # idempotence
        again, q2 = hnf(h_full)
        assert again == h_full
        assert q2 == identity(n)


def test_hnf_rank_deficient():
    with pytest.raises(RankError):
        hnf(((1, 2), (2, 4), (0, 1)))


@pytest.mark.parametrize(
    "scale_g, message",
    [
        # (g, 2x, 2y): every 2 x 2 step has determinant x p + y qq = 2, yet the
        # readback a @ u == h holds and h is in Hermite form.
        pytest.param(1, "determinant", id="unimodular"),
        # (2g, 2x, 2y) with g = 1: qq = other // 2 leaves a nonzero entry above
        # the diagonal, which the Hermite-shape check reports (it runs before
        # the determinant check, which would fail too).
        pytest.param(2, "out of Hermite form", id="hermite-shape"),
    ],
)
def test_hnf_checks_its_elimination_on_each_new_matrix(monkeypatch, scale_g, message):
    # The checks that the key step trusts run once per distinct matrix, on
    # the cache miss that eliminates it: a broken extended gcd must not get
    # a result into the memo.
    xgcd = exact_linalg._xgcd

    def broken_xgcd(a, b):
        g, x, y = xgcd(a, b)
        return scale_g * g, 2 * x, 2 * y

    a = ((2, 3), (5, 7))
    exact_linalg._hnf_cached.cache_clear()
    monkeypatch.setattr(exact_linalg, "_xgcd", broken_xgcd)
    with pytest.raises(InvariantViolation, match=message):
        hnf(a)
    monkeypatch.undo()
    h_full, u = hnf(a)
    assert h_full == identity(2) and abs(det(u)) == 1


def test_solve_rational_identity():
    assert solve_rational(identity(3), (4, -1, 7)) == (4, -1, 7)


def test_solve_rational_examples():
    assert solve_rational(((1, 0), (1, 2)), (0, 1)) == (0, Fraction(1, 2))
    assert solve_rational(((2,),), (1,)) == (Fraction(1, 2),)


def test_solve_rational_singular():
    with pytest.raises(SingularityError):
        solve_rational(((1, 2), (2, 4)), (1, 1))


@pytest.mark.parametrize("b", [(1,), (1, 2, 3)])
def test_solve_rational_rejects_a_right_hand_side_of_the_wrong_length(b):
    # A short b must not give a truncated solution, such as (1/2,) for (1,).
    with pytest.raises(ShapeError):
        solve_rational(((2, 0), (0, 3)), b)


def test_solve_rational_against_gauss_oracle():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        while True:
            m = random_int_matrix(rng, n, n, 8)
            if det(m) != 0:
                break
        b = tuple(rng.randint(-8, 8) for _ in range(n))
        assert solve_rational(m, b) == gauss_solve(m, b)


def test_is_unimodular():
    assert is_unimodular(identity(4))
    assert is_unimodular(((1, 1), (0, 1)))
    assert not is_unimodular(((2, 0), (0, 1)))
    assert not is_unimodular(((1, 0, 0), (0, 1, 0)))


def test_unimodular_inverse_round_trip():
    u = ((2, 1), (1, 1))
    assert mat_mul(u, unimodular_inverse(u)) == identity(2)


def test_unimodular_inverse_reads_the_determinant_of_the_adjugate_pass():
    # det(u) comes with adj(u) from the one memoized elimination: +1 returns
    # the adjugate, -1 its negation, anything else raises, also when the
    # memo already holds the matrix.
    rng = random.Random(33)
    for _ in range(50):
        u = random_unimodular_map(rng, rng.randint(1, 5)).U
        adjugate(u)
        assert unimodular_inverse(u) == tuple(tuple(map(int, row)) for row in gauss_inverse(u))
        assert mat_mul(u, unimodular_inverse(u)) == identity(len(u))
    for bad in (((2, 0), (0, 1)), ((1, 2), (2, 4)), ((0, 0), (0, 0))):
        adjugate(bad)
        with pytest.raises(SingularityError, match="not unimodular"):
            unimodular_inverse(bad)


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(((1, 0), (0.5, 2)), id="float"),
        pytest.param(((1, 0), (True, 2)), id="bool"),
        pytest.param(((1, 0), (1, 2, 3)), id="ragged"),
    ],
)
def test_public_entries_reject_rows_that_are_not_int_matrices(rows):
    # The package's own callers reach the memos directly with rows that a
    # constructor already checked; every public entry still checks its
    # argument, and a bad one never reaches a memo.
    from deltasimplex import InequalitySystem, NormalizedSystem, PreconditionError

    error = ShapeError if len(rows[1]) != len(rows[0]) else PreconditionError
    calls = [
        lambda: hnf(rows),
        lambda: adjugate(rows),
        lambda: unimodular_inverse(rows),
        lambda: solve_rational(rows, (1, 1)),
        lambda: InequalitySystem(2, rows + ((-1, -1),), (0, 0, 1)),
        lambda: NormalizedSystem(2, 1, 1, rows, (0, 0), (-1, -1), 2, 2),
    ]
    before = (exact_linalg._hnf_cached.cache_info().currsize, _adjugate_cached.cache_info().currsize)
    for call in calls:
        with pytest.raises(error):
            call()
    assert (exact_linalg._hnf_cached.cache_info().currsize, _adjugate_cached.cache_info().currsize) == before


def test_max_minors_triangle():
    minors = max_minors(((-1, 0), (0, -1), (1, 1)))
    assert sorted(abs(m) for _, m in minors) == [1, 1, 1]
    assert delta_value(((-1, 0), (0, -1), (1, 1))) == 1


def test_max_minors_segment():
    minors = max_minors(((3,), (-2,)))
    assert dict(minors) == {(1,): -2, (0,): 3}
    assert delta_value(((3,), (-2,))) == 3


def test_max_minors_duplicate_row():
    minors = dict(max_minors(((1, 2), (1, 2), (0, 1))))
    assert minors[(0, 1)] == 0


def test_max_minors_shape():
    with pytest.raises(ShapeError):
        max_minors(((1, 2), (3, 4)))


def test_transpose_shape():
    assert transpose(((1, 2, 3), (4, 5, 6))) == ((1, 4), (2, 5), (3, 6))
    assert shape(((1, 2),)) == (1, 2)
