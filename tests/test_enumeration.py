import math
import random
from fractions import Fraction

import pytest

from deltasimplex import (
    EmptyRange,
    InvariantViolation,
    PreconditionError,
    c0_candidates,
    count_integer_points_bruteforce,
    delta_value,
    divisor_tuples,
    enumerate_H,
    enumerate_c,
    enumerate_families,
    enumerate_h,
    hnf,
    identity,
    validate_normalized,
)
from deltasimplex.corner_ilp import path_table
from deltasimplex.equivalence import dedup_families

from helpers import gauss_inverse, random_hnf


def test_divisor_tuples_one():
    assert divisor_tuples(1) == ((),)


def test_divisor_tuples_four():
    assert set(divisor_tuples(4)) == {(4,), (2, 2)}


def test_divisor_tuples_six():
    assert set(divisor_tuples(6)) == {(6,), (2, 3), (3, 2)}


def test_divisor_tuples_twelve():
    got = set(divisor_tuples(12))
    assert got == {(12,), (2, 6), (6, 2), (3, 4), (4, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2)}


def test_divisor_tuples_invalid():
    with pytest.raises(PreconditionError):
        divisor_tuples(0)


def test_divisor_tuples_products():
    for delta in range(1, 31):
        for t in divisor_tuples(delta):
            prod = 1
            for d in t:
                prod *= d
            assert prod == delta
            assert all(d >= 2 for d in t)
            assert 2 ** len(t) <= max(delta, 1)


def test_enumerate_H_delta_one():
    blocks = list(enumerate_H(1, 3))
    assert len(blocks) == 1
    assert blocks[0].H == identity(3)


def test_enumerate_H_delta_two_dim_two():
    hs = [b.H for b in enumerate_H(2, 2)]
    assert hs == [((1, 0), (0, 2)), ((1, 0), (1, 2))]


def test_enumerate_H_delta_four_dim_two():
    hs = {b.H for b in enumerate_H(4, 2)}
    expected = {((1, 0), (b, 4)) for b in range(4)} | {((2, 0), (t, 2)) for t in range(2)}
    assert hs == expected
    assert len(list(enumerate_H(4, 2))) == 6


def test_enumerate_H_invariants():
    for delta in (1, 2, 3, 4, 6):
        for block in enumerate_H(delta, 3):
            h_full, q = hnf(block.H)
            assert h_full == block.H and q == identity(3)
            assert max(abs(x) for row in block.H for x in row) <= delta
            prod = 1
            for i in range(3):
                prod *= block.H[i][i]
            assert prod == delta


def test_enumerate_h_counts():
    assert enumerate_h(identity(3)) == ((0, 0, 0),)
    assert enumerate_h(((1, 0), (1, 2))) == ((0, 0), (0, 1))
    for delta in (2, 3, 4, 6):
        for block in enumerate_H(delta, 2):
            assert len(enumerate_h(block.H)) == delta


def test_enumerate_c_identity():
    assert enumerate_c(identity(3)) == ((-1, -1, -1),)


def test_enumerate_c_examples():
    assert set(enumerate_c(((2,),))) == {(-1,), (-2,)}
    assert set(enumerate_c(((1, 0), (1, 2)))) == {(-1, -1), (-2, -2)}


def _members_by_scan(h_mat, bound):
    """Independent membership scan over the c box via a Gauss-inverse check."""
    import itertools

    n = len(h_mat)
    inv_t = gauss_inverse([[h_mat[j][i] for j in range(n)] for i in range(n)])
    members = set()
    for c in itertools.product(range(-bound, bound + 1), repeat=n):
        t = [sum(inv_t[i][j] * (-c[j]) for j in range(n)) for i in range(n)]
        if all(0 < ti <= 1 for ti in t):
            members.add(c)
    return members


def test_enumerate_c_matches_full_scan():
    rng = random.Random(500)
    for _ in range(20):
        n = rng.randint(1, 2)
        h_mat = random_hnf(rng, n, 10)
        delta = 1
        for i in range(n):
            delta *= h_mat[i][i]
        got = enumerate_c(h_mat)
        assert len(got) == len(set(got)) == delta
        assert set(got) == _members_by_scan(h_mat, n * delta)


def _fraction_descent(h_mat):
    """enumerate_c as it was on Fractions: back-substitution on t = -H^-T c itself."""
    n = len(h_mat)
    out = []
    t_vals = [None] * n
    c_vals = [0] * n

    def descend(i):
        if i < 0:
            out.append(tuple(c_vals))
            return
        shift = sum(h_mat[j][i] * t_vals[j] for j in range(i + 1, n))
        first = math.ceil(-shift - h_mat[i][i])
        last = math.ceil(-shift) - 1
        for ci in range(first, last + 1):
            t_vals[i] = Fraction(-ci - shift, h_mat[i][i])
            c_vals[i] = ci
            descend(i - 1)

    descend(n - 1)
    return tuple(out)


def test_enumerate_c_matches_fraction_descent():
    # c_index in every record's provenance is the position in this order, so
    # the integer descent must give the Fraction descent's vectors in its order.
    blocks = 0
    for delta in range(1, 7):
        for n in range(1, 5):
            for block in enumerate_H(delta, n):
                got = enumerate_c(block.H)
                assert got == _fraction_descent(block.H)
                assert len(got) == len(set(got)) == delta
                blocks += 1
    assert blocks > 100


def test_enumerate_c_rejects_inexact_division():
    # The descent reads only the lower triangle of H. For this symmetric H,
    # det(H) = 3 does not scale its t-values to integers, and the descent
    # raises rather than truncate.
    with pytest.raises(InvariantViolation):
        enumerate_c(((2, 1), (1, 2)))


def test_c0_candidates_lattice():
    # h = 0 is the lattice family, whose (c, c0) candidates_for_block fixes in
    # closed form; it has no empty c0 range.
    with pytest.raises(PreconditionError):
        c0_candidates(path_table(identity(2), (-1, -1)), (0, 0))


def test_c0_candidates_empty_range():
    assert c0_candidates(path_table(((1, 0), (1, 2)), (-1, -1)), (0, 1)) == EmptyRange(l_star=0, f_star=0)


def test_c0_candidates_segment_cases():
    cone = path_table(((3,),), (-3,))
    assert c0_candidates(cone, (1,)) == EmptyRange(l_star=0, f_star=0)
    assert c0_candidates(cone, (2,)) == EmptyRange(l_star=-1, f_star=0)


def test_families_delta_one():
    for n in (1, 2, 3, 4):
        empties, lattices = enumerate_families(1, n)
        assert empties == []
        assert len(lattices) == 1
        ns = lattices[0].ns
        assert ns.H == identity(n)
        assert ns.h == (0,) * n
        assert ns.c == (-1,) * n
        assert ns.c0 == 1


def test_families_delta_two_dim_two():
    empties, lattices = enumerate_families(2, 2)
    assert empties == [] and lattices == []


def test_families_delta_three_dim_one():
    empties, lattices = enumerate_families(3, 1)
    assert lattices == []
    assert len(empties) == 2
    survivors = dedup_families(empties)
    assert len(survivors) == 2


def test_family_records_validate():
    for delta, n in ((3, 2), (4, 2), (4, 3)):
        empties, lattices = enumerate_families(delta, n)
        for rec in empties + lattices:
            ok, violated = validate_normalized(rec.ns)
            assert ok, violated
            assert delta_value(rec.ns.full_matrix()) == delta
            assert rec.ns.delta == delta


def test_family_ground_truth_small():
    for delta, n in ((3, 2), (4, 2)):
        empties, lattices = enumerate_families(delta, n)
        for rec in empties:
            assert count_integer_points_bruteforce(rec.system()) == 0
        for rec in lattices:
            assert count_integer_points_bruteforce(rec.system()) == n + 1


def test_families_deterministic():
    a = enumerate_families(3, 3)
    b = enumerate_families(3, 3)
    assert [(r.ns, r.family, r.provenance) for r in a[0] + a[1]] == [
        (r.ns, r.family, r.provenance) for r in b[0] + b[1]
    ]


def test_family_flags():
    empties, lattices = enumerate_families(4, 3, want_lattice=False)
    assert lattices == [] and empties
    empties, lattices = enumerate_families(4, 3, want_empty=False)
    assert empties == [] and len(lattices) == 1


def test_dropped_family_costs_no_cone_minimum(monkeypatch):
    # The family is fixed by h before the cone minimum: h = 0 needs the
    # vertex-excluding minimum, every other h the plain one, which
    # c0_candidates reads off the block's cone of (H, c) (`Cone.minimum`).
    from deltasimplex import corner_ilp, enumeration

    calls = {"minimum": 0, "excluding": 0}
    minimum, excluding = corner_ilp.Cone.minimum, enumeration.corner_minimum_excluding_vertex

    def counting_minimum(cone, h):
        calls["minimum"] += 1
        return minimum(cone, h)

    def counting_excluding(cone):
        calls["excluding"] += 1
        return excluding(cone)

    monkeypatch.setattr(corner_ilp.Cone, "minimum", counting_minimum)
    monkeypatch.setattr(enumeration, "corner_minimum_excluding_vertex", counting_excluding)
    enumerate_families(4, 3, want_empty=False)
    # Every plain minimum is one of the n = 3 targets of a vertex-excluding one.
    assert calls["excluding"] > 0 and calls["minimum"] == 3 * calls["excluding"]
    calls.update(minimum=0, excluding=0)
    enumerate_families(4, 3, want_lattice=False)
    assert calls["excluding"] == 0 and calls["minimum"] > 0


@pytest.mark.parametrize("delta, n", [(3, 3), (4, 3), (4, 2)])
def test_single_family_streams_match_both(delta, n):
    def rows(records):
        return [(r.ns, r.family, r.provenance) for r in records]

    both_empties, both_lattices = enumerate_families(delta, n)
    empties, no_lattices = enumerate_families(delta, n, want_lattice=False)
    no_empties, lattices = enumerate_families(delta, n, want_empty=False)
    assert no_lattices == [] and no_empties == []
    assert rows(empties) == rows(both_empties)
    assert rows(lattices) == rows(both_lattices)
    assert both_empties or both_lattices


def test_c0_candidates_requires_reduced_rhs():
    with pytest.raises(PreconditionError):
        c0_candidates(path_table(((2,),), (-1,)), (5,))


def test_lattice_verification_routes_agree():
    # The point-count oracle and the optimal-facet count must accept or
    # reject exactly the same lattice-branch candidates.
    from deltasimplex import (
        NormalizedSystem,
        corner_minimum_excluding_vertex,
        count_minimum_attainers,
        validate_simplex,
        validate_normalized,
    )
    from deltasimplex.errors import NotASimplexError

    checked = 0
    for delta in (2, 3, 4):
        for n in (2, 3, 4):
            for block in enumerate_H(delta, n):
                h = (0,) * n
                for c in enumerate_c(block.H):
                    cone = path_table(block.H, c)
                    f = corner_minimum_excluding_vertex(cone).f_star
                    ns = NormalizedSystem(
                        n=n, s=block.s, k=block.k, H=block.H, h=h, c=c, c0=f, delta=delta
                    )
                    ok, _ = validate_normalized(ns)
                    if not ok:
                        continue
                    try:
                        meta = validate_simplex(ns.system())
                    except NotASimplexError:
                        continue
                    if any(x.denominator != 1 for v in meta.vertices for x in v):
                        continue
                    by_count = count_integer_points_bruteforce(ns.system()) == n + 1
                    by_facet = count_minimum_attainers(cone, f) == n
                    assert by_count == by_facet
                    checked += 1
    assert checked >= 10


def test_early_vertex_test_matches_validated_vertices():
    # The vertex test on adj(H) and the cone's weights decides exactly
    # what the denominators of validate_simplex's vertices decide, on every
    # lattice candidate (h = 0, c0 = f_star) with delta <= 6 and n <= 4.
    from deltasimplex import (
        NormalizedSystem,
        NotASimplexError,
        adjugate,
        corner_minimum_excluding_vertex,
        validate_simplex,
    )
    from deltasimplex.enumeration import _lattice_vertices_integral

    seen = {True: 0, False: 0}
    for delta in range(1, 7):
        for n in range(1, 5):
            for block in enumerate_H(delta, n):
                adj = adjugate(block.H)
                h = (0,) * n
                for c in enumerate_c(block.H):
                    cone = path_table(block.H, c)
                    c0 = corner_minimum_excluding_vertex(cone).f_star
                    ns = NormalizedSystem(n=n, s=block.s, k=block.k, H=block.H, h=h, c=c, c0=c0, delta=delta)
                    try:
                        meta = validate_simplex(ns.system())
                    except NotASimplexError:
                        continue
                    integral = all(den == 1 for _, den in meta.points)
                    assert _lattice_vertices_integral(adj, cone.weights, c0) == integral
                    seen[integral] += 1
    assert seen[True] > 50 and seen[False] > 500


def _families_in_old_check_order(delta, n, want_empty=True):
    """Test-side copy of the generator with the lattice vertex test after the record checks.

    Its lattice family is the per-c loop: every c of `enumerate_c`, each with
    a cone minimum, and c0 = f_star.
    """
    from deltasimplex import (
        CandidateRecord,
        NormalizedSystem,
        NotASimplexError,
        corner_minimum_excluding_vertex,
        count_minimum_attainers,
        validate_simplex,
    )

    empties, lattices = [], []
    for block in enumerate_H(delta, n):
        row_gcds = [math.gcd(*row) for row in block.H]
        for h_index, h in enumerate(enumerate_h(block.H)):
            if any(math.gcd(row_gcds[i], h[i]) > 1 for i in range(n)):
                continue
            family, out = ("empty", empties) if any(h) else ("lattice_empty", lattices)
            if family == "empty" and not want_empty:
                continue
            for c_index, c in enumerate(enumerate_c(block.H)):
                cone = path_table(block.H, c)
                if family == "empty":
                    r = c0_candidates(cone, h)
                    c0_values = range(r.l_star, r.f_star)
                else:
                    c0_values = [corner_minimum_excluding_vertex(cone).f_star]
                for c0 in c0_values:
                    if math.gcd(*c, c0) > 1:
                        continue
                    ns = NormalizedSystem(n=n, s=block.s, k=block.k, H=block.H, h=h, c=c, c0=c0, delta=delta)
                    if not validate_normalized(ns)[0]:
                        continue
                    try:
                        meta = validate_simplex(ns.system())
                    except NotASimplexError:
                        continue
                    if family == "lattice_empty" and (
                        any(den != 1 for _, den in meta.points) or count_minimum_attainers(cone, c0) != n
                    ):
                        continue
                    provenance = {
                        "delta": delta,
                        "diag": list(block.diag),
                        "tuple_index": block.tuple_index,
                        "t_index": block.t_index,
                        "b_index": block.b_index,
                        "h_index": h_index,
                        "c_index": c_index,
                        "c0": c0,
                    }
                    out.append(CandidateRecord(ns, family, provenance))
    return empties, lattices


@pytest.mark.parametrize("delta, n", [(4, 5), (3, 4), (6, 3), (4, 3), (8, 2), (1, 3)])
def test_families_match_old_check_order(delta, n):
    def rows(records):
        return [(r.ns, r.family, r.provenance) for r in records]

    new_empties, new_lattices = enumerate_families(delta, n)
    old_empties, old_lattices = _families_in_old_check_order(delta, n)
    assert rows(new_empties) == rows(old_empties)
    assert rows(new_lattices) == rows(old_lattices)
    assert new_empties or new_lattices


def _white_tetrahedron(p, q):
    """Facet inequalities of T(p, q) = conv(0, e1, e3, (p, q, 1))."""
    from deltasimplex import InequalitySystem

    verts = [(0, 0, 0), (1, 0, 0), (0, 0, 1), (p, q, 1)]
    rows, rhs = [], []
    for i in range(4):
        a, b, c = (v for j, v in enumerate(verts) if j != i)
        u = [b[k] - a[k] for k in range(3)]
        v = [c[k] - a[k] for k in range(3)]
        normal = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        bound = sum(x * y for x, y in zip(normal, a))
        if sum(x * y for x, y in zip(normal, verts[i])) > bound:
            normal, bound = [-x for x in normal], -bound
        rows.append(tuple(normal))
        rhs.append(bound)
    return InequalitySystem(3, rows, rhs)


@pytest.mark.parametrize(
    "delta, n", [(d, k) for d in range(1, 9) for k in range(1, 5)] + [(3, 8), (9, 3), (16, 3)]
)
def test_closed_form_lattice_stream_matches_per_c_loop(delta, n):
    # The closed form tries only c = -q H^T g / det H; the per-c loop tries
    # every c. The streams agree record for record, provenance included.
    def rows(records):
        return [(r.ns, r.family, r.provenance) for r in records]

    no_empties, lattices = enumerate_families(delta, n, want_empty=False)
    assert no_empties == []
    assert rows(lattices) == rows(_families_in_old_check_order(delta, n, want_empty=False)[1])


def test_closed_form_invariants_raise(monkeypatch):
    # A closed-form c missing from enumerate_c, or a kept lattice candidate
    # whose vertex cross-check fails, is a bug in the generator, not a
    # rejected candidate.
    from deltasimplex import enumeration
    from deltasimplex.enumeration import _lattice_record

    block = next(enumerate_H(1, 2))
    assert _lattice_record(block, 1, {}) is not None
    monkeypatch.setattr(enumeration, "enumerate_c", lambda h_mat: ())
    with pytest.raises(InvariantViolation, match="not in enumerate_c"):
        _lattice_record(block, 1, {})
    monkeypatch.undo()
    monkeypatch.setattr(enumeration, "_lattice_vertices_integral", lambda adj, w, c0: False)
    with pytest.raises(InvariantViolation, match="closed-form lattice candidate has a fractional vertex"):
        enumeration.candidates_for_block(block, want_empty=False, want_lattice=True)


def test_failed_record_check_raises_instead_of_dropping(monkeypatch):
    # Every record check holds by construction, so a candidate that fails
    # one is a generator bug: candidates_for_block raises InvariantViolation
    # rather than drop the candidate, in both families.
    from deltasimplex import NotASimplexError, enumeration

    cases = [(next(enumerate_H(3, 1)), True, False), (next(enumerate_H(1, 2)), False, True)]
    for block, want_empty, want_lattice in cases:
        empties, lattices = enumeration.candidates_for_block(block, want_empty, want_lattice)
        assert len(empties if want_empty else lattices) > 0

    def not_a_simplex(sys):
        raise NotASimplexError("zero minor")

    patches = [
        ("validate_normalized", lambda ns: (False, ("tie-break",)), "violates the normal form"),
        ("validate_simplex", not_a_simplex, "is not a simplex"),
    ]
    for name, fake, message in patches:
        monkeypatch.setattr(enumeration, name, fake)
        for block, want_empty, want_lattice in cases:
            with pytest.raises(InvariantViolation, match=message):
                enumeration.candidates_for_block(block, want_empty, want_lattice)
        monkeypatch.undo()


def _closed_form_qs(h_mat):
    """The q values the closed form tries for one H: [m] if m * max g_i <= det H, else []."""
    from deltasimplex import adjugate

    n = len(h_mat)
    delta = math.prod(h_mat[i][i] for i in range(n))
    g = [math.gcd(*(adjugate(h_mat)[i][j] for i in range(n))) for j in range(n)]
    v = [sum(h_mat[i][j] * g[i] for i in range(n)) for j in range(n)]
    m = delta // math.gcd(delta, *v)
    return [m] if m * max(g) <= delta else []


def test_lattice_family_makes_one_cone_minimum_per_q(monkeypatch):
    # enumerate --family lattice --up-to --delta 3 --dim 8: the per-c loop
    # made one vertex-excluding minimum per (block, c), 120 in all; the
    # closed form makes one per block, for q = m, 22 in all.
    from deltasimplex import enumerate_atlas, enumeration

    calls = []
    original = enumeration.corner_minimum_excluding_vertex
    monkeypatch.setattr(
        enumeration, "corner_minimum_excluding_vertex", lambda cone: calls.append(cone.c) or original(cone)
    )
    records = enumerate_atlas(3, 8, "lattice", up_to=True)
    assert len(records) == 1
    # Blocks with a row gcd > 1 fail the (H|h) gcd rule at h = 0.
    blocks = [b for d in (1, 2, 3) for b in enumerate_H(d, 8) if all(math.gcd(*row) == 1 for row in b.H)]
    assert len(calls) == sum(len(_closed_form_qs(b.H)) for b in blocks) == 22
    assert sum(len(enumerate_c(b.H)) for b in blocks) == 120


@pytest.mark.parametrize("delta, n", [(3, 8), (4, 4), (9, 3), (16, 3)])
def test_lattice_only_run_skips_the_h_and_c_walks(monkeypatch, delta, n):
    # A lattice-only run builds no h list, and builds enumerate_c only to
    # find c_index of a candidate that passed the cone minimum (f* == m)
    # and the facet count, i.e. once per record.
    from deltasimplex import enumeration

    calls = {"enumerate_h": 0, "enumerate_c": 0}
    for name in calls:
        original = getattr(enumeration, name)

        def counting(h_mat, _name=name, _original=original):
            calls[_name] += 1
            return _original(h_mat)

        monkeypatch.setattr(enumeration, name, counting)
    minima = []
    original_minimum = enumeration.corner_minimum_excluding_vertex

    def recording_minimum(cone):
        sol = original_minimum(cone)
        minima.append((cone.H, sol.f_star))
        return sol

    monkeypatch.setattr(enumeration, "corner_minimum_excluding_vertex", recording_minimum)
    empties, lattices = enumerate_families(delta, n, want_empty=False)
    kept = sum(_closed_form_qs(h_mat) == [f_star] for h_mat, f_star in minima)
    assert empties == [] and kept >= len(lattices) and kept > 0
    assert calls == {"enumerate_h": 0, "enumerate_c": len(lattices)}


def _white_orbits(q):
    """Orbits of (Z/q)^x under p -> -p and p -> p^-1; each is {+-p^(+-1) mod q}."""
    units = [p for p in range(q) if math.gcd(p, q) == 1]
    return {frozenset({p % q, -p % q, pow(p, -1, q), -pow(p, -1, q) % q}) for p in units}


def _check_white_theorem(q_max):
    """The n = 3 lattice atlas up to Delta = q_max^2 against White's classification.

    White (Canad. J. Math., 1964): every empty lattice tetrahedron is
    equivalent to T(p, q) with gcd(p, q) = 1, and Delta(T(p, q)) = q^2;
    T(p, q) and T(p', q) are equivalent iff p' = +-p^(+-1) mod q. So the
    atlas has records only at Delta = q^2, one per orbit of (Z/q)^x under
    p -> -p and p -> p^-1. Equivalence is decided by the vertex-bijection
    oracle, not the package.
    """
    from deltasimplex import enumerate_atlas

    from helpers import vertex_bijection_equivalent

    records = enumerate_atlas(q_max**2, 3, "lattice", up_to=True)
    expected = sorted(q * q for q in range(1, q_max + 1) for _ in _white_orbits(q))
    assert sorted(r.ns.delta for r in records) == expected
    classes = {}
    for rec in records:
        q = math.isqrt(rec.ns.delta)
        assert rec.family == "lattice_empty"
        matches = frozenset(
            p
            for orbit in _white_orbits(q)
            for p in orbit
            if vertex_bijection_equivalent(rec.system(), _white_tetrahedron(p, q)) is not None
        )
        classes.setdefault(q, []).append(matches)
    for q in range(1, q_max + 1):
        # Each record is equivalent to exactly the T(p, q) of one orbit, and
        # each orbit has exactly one record.
        assert sorted(map(sorted, classes[q])) == sorted(map(sorted, _white_orbits(q)))


def test_white_theorem_lattice_tetrahedra():
    # Up to q = 6 that is one class at each Delta in {1, 4, 9, 16, 36} and
    # two at 25, T(1, 5) and T(2, 5).
    assert [len(_white_orbits(q)) for q in range(1, 7)] == [1, 1, 1, 1, 2, 1]
    _check_white_theorem(6)


@pytest.mark.slow
def test_white_theorem_lattice_tetrahedra_to_64():
    # Up to q = 8 (Delta = 64): 11 classes, two each at Delta = 25, 49 and 64.
    assert [len(_white_orbits(q)) for q in range(1, 9)] == [1, 1, 1, 1, 2, 1, 2, 2]
    _check_white_theorem(8)
