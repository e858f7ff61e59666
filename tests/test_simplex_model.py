import math
import random
import re
from fractions import Fraction

import pytest

from deltasimplex import (
    AffineUnimodularMap,
    InequalitySystem,
    NormalizedSystem,
    NotASimplexError,
    PreconditionError,
    ScaleExceededError,
    ShapeError,
    apply_map,
    compose,
    count_integer_points_bruteforce,
    inverse,
    matrix,
    system_from_dict,
    system_to_dict,
    validate_simplex,
    vector,
)
from deltasimplex import simplex_model
from deltasimplex.exact_linalg import solve_rational

from helpers import cofactor_det, identity_map, max_minors, random_simplex, random_unimodular_map, vertices


def test_shapes_enforced():
    with pytest.raises(ShapeError):
        InequalitySystem(2, ((1, 0), (0, 1)), (0, 0))
    with pytest.raises(ShapeError):
        InequalitySystem(2, ((1, 0), (0, 1), (1, 1)), (0, 0))


@pytest.mark.parametrize("bad", [1.7, -1.0, True, "1"])
def test_non_integer_entries_rejected(bad):
    # int() would truncate a float (x <= 1.7 read as x <= 1) and coerce a
    # bool or a string, so each is an error at the library boundary.
    with pytest.raises(PreconditionError):
        matrix([[1, 0], [0, bad]])
    # Tuple rows take the no-copy path, which must check every entry too.
    with pytest.raises(PreconditionError):
        matrix(((1, 0), (0, bad)))
    with pytest.raises(PreconditionError):
        matrix(((bad, 1),))
    with pytest.raises(PreconditionError):
        vector([0, bad])
    with pytest.raises(PreconditionError):
        vector((0, bad))
    with pytest.raises(PreconditionError):
        InequalitySystem(1, [[bad], [-1]], [1, 0])
    with pytest.raises(PreconditionError):
        InequalitySystem(1, [[1], [-1]], [bad, 0])
    for field in ("H", "h", "c"):
        fields = dict(n=1, s=0, k=1, H=[[2]], h=[1], c=[-1], c0=-1, delta=2)
        fields[field] = [[bad]] if field == "H" else [bad]
        with pytest.raises(PreconditionError):
            NormalizedSystem(**fields)
    assert InequalitySystem(1, [[1], [-1]], [1, 0]).A == ((1,), (-1,))


def test_validate_standard_triangle(triangle):
    meta = validate_simplex(triangle)
    assert meta.delta == 1
    assert set(vertices(meta)) == {(0, 0), (1, 0), (0, 1)}
    assert meta.max_det_bases == ((1, 2), (0, 2), (0, 1))


def test_validate_degenerate_segment():
    sys = InequalitySystem(1, ((1,), (-1,)), (0, 0))
    with pytest.raises(NotASimplexError):
        validate_simplex(sys)


def test_validate_parallel_rows():
    sys = InequalitySystem(1, ((1,), (1,)), (1, 2))
    with pytest.raises(NotASimplexError):
        validate_simplex(sys)


def test_apply_map_identity(triangle):
    assert apply_map(triangle, identity_map(2)) == triangle


def test_apply_map_coordinate_swap(triangle):
    swap = AffineUnimodularMap(((0, 1), (1, 0)), (0, 0))
    out = apply_map(triangle, swap)
    assert out.A == ((0, -1), (-1, 0), (1, 1))
    assert out.b == triangle.b


def test_apply_map_round_trip(triangle):
    rng = random.Random(5)
    for _ in range(20):
        m = random_unimodular_map(rng, 2)
        assert apply_map(apply_map(triangle, m), inverse(m)) == triangle


def test_compose_and_inverse():
    rng = random.Random(9)
    for n in (1, 2, 3):
        ident = identity_map(n)
        for _ in range(10):
            m = random_unimodular_map(rng, n)
            assert compose(m, ident) == m
            assert compose(inverse(m), m) == ident
    assert inverse(identity_map(3)) == identity_map(3)


@pytest.mark.parametrize("u", [((2, 0), (0, 1)), ((1, 1), (1, 1)), ((1, 2, 0), (0, 1, 0), (1, 0, 3))])
def test_non_unimodular_map_rejected(u):
    with pytest.raises(PreconditionError):
        AffineUnimodularMap(u, (0,) * len(u))


def test_compose_and_inverse_stay_unimodular():
    # compose and inverse skip the constructor's det check; their results
    # must still be unimodular, and m after its inverse must be the identity.
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(1, 5)
        m1 = random_unimodular_map(rng, n)
        m2 = random_unimodular_map(rng, n)
        point = (tuple(rng.randint(-9, 9) for _ in range(n)), 1)
        both = compose(m2, m1)
        assert both.image(point) == m2.image(m1.image(point))
        for m in (both, inverse(m1), inverse(both)):
            assert abs(cofactor_det(m.U)) == 1
        assert inverse(m1).image(m1.image(point)) == point
        assert compose(m1, inverse(m1)) == identity_map(n)
        assert compose(inverse(both), both) == identity_map(n)


def test_image_maps_reduced_points():
    # image((nums, d)) is (U nums + d x0) / d in lowest terms, which is
    # U v + x0 for the point v = nums / d.
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_unimodular_map(rng, n)
        d = rng.randint(1, 6)
        point = simplex_model.reduced_point(tuple(rng.randint(-9, 9) for _ in range(n)), d)
        nums, den = m.image(point)
        assert den > 0 and math.gcd(*nums, den) == 1
        v = [Fraction(x, point[1]) for x in point[0]]
        expected = [sum(a * x for a, x in zip(row, v)) + t for row, t in zip(m.U, m.x0)]
        assert [Fraction(x, den) for x in nums] == expected


def test_count_triangle(triangle):
    assert count_integer_points_bruteforce(triangle) == 3


def test_count_empty_segment():
    sys = InequalitySystem(1, ((3,), (-3,)), (2, -1))
    assert count_integer_points_bruteforce(sys) == 0


def test_count_lattice_corner():
    sys = InequalitySystem(2, ((1, 0), (0, 1), (-1, -1)), (0, 0, 1))
    assert count_integer_points_bruteforce(sys) == 3


def test_count_cap(monkeypatch):
    monkeypatch.setattr(simplex_model, "POINT_COUNT_CAP", 1000)
    big = InequalitySystem(2, ((-1, 0), (0, -1), (1, 1)), (0, 0, 1000))
    with pytest.raises(ScaleExceededError, match="> cap 1000$"):
        count_integer_points_bruteforce(big)


def test_invariants_under_maps():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 3)
        sys = random_simplex(rng, n)
        meta = validate_simplex(sys)
        m = random_unimodular_map(rng, n, entry_bound=6, trans_bound=4)
        moved = apply_map(sys, m)
        meta2 = validate_simplex(moved)
        assert meta2.delta == meta.delta
        assert sorted(abs(x) for _, x in max_minors(moved.A)) == sorted(
            abs(x) for _, x in max_minors(sys.A)
        )
        inv = inverse(m)
        assert set(meta2.points) == set(map(inv.image, meta.points))


def test_minor_multiset_invariant_under_row_permutation():
    rng = random.Random(77)
    sys = random_simplex(rng, 3)
    perm = [2, 0, 3, 1]
    permuted = InequalitySystem(
        3,
        tuple(sys.A[i] for i in perm),
        tuple(sys.b[i] for i in perm),
    )
    assert sorted(abs(x) for _, x in max_minors(permuted.A)) == sorted(
        abs(x) for _, x in max_minors(sys.A)
    )


def test_count_invariant_under_maps(monkeypatch):
    monkeypatch.setattr(simplex_model, "POINT_COUNT_CAP", 500_000)
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(1, 2)
        sys = random_simplex(rng, n, entry_bound=4)
        m = random_unimodular_map(rng, n, entry_bound=4, trans_bound=3)
        try:
            before = count_integer_points_bruteforce(sys)
            after = count_integer_points_bruteforce(apply_map(sys, m))
        except ScaleExceededError:
            continue
        assert before == after


def test_json_round_trip(triangle):
    data = system_to_dict(triangle)
    assert data["format"] == "delta-simplex/system-v1"
    assert system_from_dict(data) == triangle


def test_vertices_are_exact_fractions(triangle):
    sys = InequalitySystem(1, ((2,), (-3,)), (1, -1))
    meta = validate_simplex(sys)
    assert set(vertices(meta)) == {(Fraction(1, 2),), (Fraction(1, 3),)}


def test_vertex_points_are_reduced_cramer_solutions():
    # Vertex i is stored as an integer point (nums, den) in lowest terms with
    # den > 0; it must solve the base that omits row i (Cramer's rule with the
    # test-side cofactor determinant).
    rng = random.Random(84)
    fractional = 0
    for n in [1, 2, 3, 4, 5] * 30:
        sys = random_simplex(rng, n, entry_bound=5 if n < 5 else 3)
        meta = validate_simplex(sys)
        assert len(meta.points) == n + 1
        for omit, (nums, den) in enumerate(meta.points):
            assert den > 0
            assert math.gcd(*nums, den) == 1
            a = tuple(row for i, row in enumerate(sys.A) if i != omit)
            b = tuple(x for i, x in enumerate(sys.b) if i != omit)
            d = cofactor_det(a)
            for j in range(n):
                d_j = cofactor_det(tuple(row[:j] + (bi,) + row[j + 1 :] for row, bi in zip(a, b)))
                assert nums[j] * d == d_j * den
            fractional += den > 1
    assert fractional > 100


def _reference_meta(sys):
    """validate_simplex from independent pieces: max_minors and one solve per base.

    Returns (minors, vertices, max_det_bases) for a simplex, or the kind of
    failure and the message that validate_simplex must raise: the first zero
    minor, else the first row that its basic solution does not satisfy
    strictly (tight or violated).
    """
    minors = max_minors(sys.A)
    for base, minor in minors:
        if minor == 0:
            return "zero-minor", f"zero minor at base {base}"
    vertices = []
    for omit, (base, _) in enumerate(minors):
        v = solve_rational(tuple(sys.A[i] for i in base), tuple(sys.b[i] for i in base))
        slack = sys.b[omit] - sum(a * x for a, x in zip(sys.A[omit], v))
        if slack <= 0:
            return "tight" if slack == 0 else "violated", f"row {omit} not strictly satisfied"
        vertices.append(v)
    delta = max(abs(m) for _, m in minors)
    bases = tuple(base for base, m in minors if abs(m) == delta)
    return tuple(m for _, m in minors), tuple(vertices), bases


@pytest.mark.parametrize("seed", range(4))
def test_validate_simplex_agrees_with_reference(seed):
    # Small entries make degenerate bases common; right-hand sides built from
    # a common point make tight rows (slack exactly 0) common too.
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 5)
        bound = rng.choice((1, 2, 4))
        a = tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n + 1))
        if rng.random() < 0.3:
            p = [rng.randint(-3, 3) for _ in range(n)]
            b = tuple(sum(x * y for x, y in zip(row, p)) + rng.choice((0, 0, 1, 2)) for row in a)
        else:
            b = tuple(rng.randint(-bound, bound) for _ in range(n + 1))
        sys = InequalitySystem(n, a, b)
        expected = _reference_meta(sys)
        if isinstance(expected[1], str):
            kind, message = expected
            outcomes.add(kind)
            with pytest.raises(NotASimplexError, match=re.escape(message)):
                validate_simplex(sys)
        else:
            outcomes.add("simplex")
            meta = validate_simplex(sys)
            assert (meta.minors, vertices(meta), meta.max_det_bases) == expected
            assert meta.delta == max(abs(m) for m in meta.minors)
    assert outcomes == {"simplex", "zero-minor", "tight", "violated"}

