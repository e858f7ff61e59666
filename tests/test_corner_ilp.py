import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasimplex import (
    PreconditionError,
    corner_minimum,
    corner_minimum_excluding_vertex,
    count_minimum_attainers,
    enumerate_c,
    group_table,
    identity,
)
from deltasimplex.corner_ilp import path_table
from deltasimplex.exact_linalg import adjugate, dot

from helpers import RadiusError, corner_minimum_bruteforce, random_hnf, reduce_residue


def oracle_minimum(h_mat, h, c):
    """Adaptive-radius wrapper for the box-scan oracle."""
    n = len(h_mat)
    delta = 1
    for i in range(n):
        delta *= h_mat[i][i]
    radius = 2
    cap = max(4, delta * n + 2)
    while True:
        try:
            return corner_minimum_bruteforce(h_mat, h, c, radius)
        except RadiusError:
            if radius > cap:
                raise
            radius *= 2


def test_reduce_residue_zero():
    assert reduce_residue(((1, 0), (1, 2)), (0, 0)) == (0, 0)


def test_reduce_residue_example():
    assert reduce_residue(((1, 0), (1, 2)), (3, 4)) == (0, 1)


@given(st.integers(0, 3000))
@settings(max_examples=60, deadline=None)
def test_reduce_residue_lattice_invariance(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    h_mat = random_hnf(rng, n, 12)
    z = tuple(rng.randint(-20, 20) for _ in range(n))
    w = tuple(rng.randint(-5, 5) for _ in range(n))
    shifted = tuple(z[i] + sum(h_mat[i][j] * w[j] for j in range(n)) for i in range(n))
    r = reduce_residue(h_mat, z)
    assert reduce_residue(h_mat, shifted) == r
    assert all(0 <= r[i] < h_mat[i][i] for i in range(n))


def test_group_table_order():
    table = group_table(((1, 0), (1, 2)))
    assert table.order == 2
    assert table.elements == ((0, 0), (0, 1))


def test_corner_minimum_identity_cone():
    for n in (1, 2, 3):
        sol = corner_minimum(identity(n), (0,) * n, (-1,) * n)
        assert sol.f_star == 0
        assert sol.witness_x == (0,) * n


def test_corner_minimum_example():
    sol = corner_minimum(((1, 0), (1, 2)), (0, 1), (-1, -1))
    assert sol.f_star == 0
    assert dot((-1, -1), sol.witness_x) == 0
    assert sol.witness_x[0] <= 0 and sol.witness_x[0] + 2 * sol.witness_x[1] <= 1


def test_corner_minimum_precondition():
    with pytest.raises(PreconditionError):
        corner_minimum(identity(2), (0, 0), (-2, -1))
    with pytest.raises(PreconditionError):
        corner_minimum(identity(2), (0, 0), (1, 1))


def test_unreachable_class_raises(monkeypatch):
    # Unit steps reach every class of Z^n / H Z^n, so a class without a
    # distance is a solver bug, never a minimum of 0.
    from deltasimplex import InvariantViolation, corner_ilp

    real = corner_ilp._dijkstra

    def cut(table, weights):
        zero_id, dist, pred = real(table, weights)
        return zero_id, [d if i == zero_id else None for i, d in enumerate(dist)], pred

    monkeypatch.setattr(corner_ilp, "_dijkstra", cut)
    assert corner_minimum(((2,),), (0,), (-1,)).f_star == 0
    with pytest.raises(InvariantViolation, match="unreachable"):
        corner_minimum(((2,),), (1,), (-1,))


def test_excluding_vertex_identity():
    for n in (1, 2, 3):
        sol = corner_minimum_excluding_vertex(path_table(identity(n), (-1,) * n))
        assert sol.f_star == 1
        assert sol.witness_x != (0,) * n


def test_excluding_vertex_examples():
    assert corner_minimum_excluding_vertex(path_table(((1, 0), (0, 2)), (-1, -2))).f_star == 1
    sol = corner_minimum_excluding_vertex(path_table(((2,),), (-1,)))
    assert sol.f_star == 1 and sol.witness_x == (-1,)


def test_bruteforce_mirrors_examples():
    assert oracle_minimum(identity(2), (0, 0), (-1, -1)).f_star == 0
    assert oracle_minimum(((1, 0), (1, 2)), (0, 1), (-1, -1)).f_star == 0
    assert oracle_minimum(((2,),), (1,), (-2,)).f_star == 0


def test_bruteforce_radius_too_small():
    with pytest.raises(RadiusError):
        corner_minimum_bruteforce(((2,),), (1,), (-2,), 1)


def test_oracle_equivalence_randomized():
    rng = random.Random(404)
    for _ in range(80):
        n = rng.randint(1, 3)
        h_mat = random_hnf(rng, n, 12)
        h = tuple(rng.randrange(h_mat[i][i]) for i in range(n))
        c = rng.choice(enumerate_c(h_mat))
        sol = corner_minimum(h_mat, h, c)
        assert sol.f_star == oracle_minimum(h_mat, h, c).f_star


def test_weight_bounds_characterize_membership():
    rng = random.Random(88)
    for _ in range(40):
        n = rng.randint(1, 3)
        h_mat = random_hnf(rng, n, 15)
        delta = 1
        for i in range(n):
            delta *= h_mat[i][i]
        for c in enumerate_c(h_mat):
            cone = path_table(h_mat, c)
            assert cone.delta == delta
            assert all(1 <= wi <= delta for wi in cone.weights)


def test_divisibility_invariant():
    rng = random.Random(123)
    for _ in range(60):
        n = rng.randint(1, 4)
        h_mat = random_hnf(rng, n, 16)
        delta = 1
        for i in range(n):
            delta *= h_mat[i][i]
        h = tuple(rng.randint(-10, 10) for _ in range(n))
        c = rng.choice(enumerate_c(h_mat))
        sol = corner_minimum(h_mat, h, c)
        adj = adjugate(h_mat)
        c_adj_h = sum(c[i] * sum(adj[i][j] * h[j] for j in range(n)) for i in range(n))
        # delta * f_star - c^T adj(H) h is the shortest-path distance: a nonneg integer
        dist = delta * sol.f_star - c_adj_h
        assert dist >= 0
        assert (c_adj_h + dist) % delta == 0


def test_distance_monotonicity():
    rng = random.Random(321)
    for _ in range(30):
        n = rng.randint(1, 3)
        h_mat = random_hnf(rng, n, 10)
        delta = 1
        for i in range(n):
            delta *= h_mat[i][i]
        h = tuple(rng.randrange(h_mat[i][i]) for i in range(n))
        c = rng.choice(enumerate_c(h_mat))
        w = path_table(h_mat, c).weights
        adj = adjugate(h_mat)

        def dist(rhs):
            sol = corner_minimum(h_mat, rhs, c)
            c_adj = sum(c[i] * sum(adj[i][j] * rhs[j] for j in range(n)) for i in range(n))
            return delta * sol.f_star - c_adj

        for j in range(n):
            shifted = tuple(h[i] - (1 if i == j else 0) for i in range(n))
            assert dist(h) <= dist(shifted) + w[j]


def test_lower_bound_by_vertex_value():
    import math
    from deltasimplex.exact_linalg import solve_rational

    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 3)
        h_mat = random_hnf(rng, n, 12)
        h = tuple(rng.randint(-6, 6) for _ in range(n))
        c = rng.choice(enumerate_c(h_mat))
        v = solve_rational(h_mat, h)
        cv = sum(ci * vi for ci, vi in zip(c, v))
        assert corner_minimum(h_mat, h, c).f_star >= math.ceil(cv)


def test_count_minimum_attainers_identity():
    for n in (1, 2, 3, 5, 7):
        assert count_minimum_attainers(path_table(identity(n), (-1,) * n), 1) == n


def test_count_minimum_attainers_extra_point():
    # integer vertices alone do not imply lattice emptiness: this cone has a
    # third integer point on the optimal facet besides the two facet vertices
    assert count_minimum_attainers(path_table(((1, 0), (1, 2)), (-1, -1)), 1) == 3


def test_count_minimum_attainers_matches_direct_scan():
    # Independent count: attainers are in bijection with y = -Hx, i.e. the
    # nonnegative integer vectors with w^T y = delta * f that lie in the
    # lattice H Z^n; enumerate those y directly and test lattice membership
    # by an exact rational solve.
    import itertools

    from helpers import gauss_solve

    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 3)
        h_mat = random_hnf(rng, n, 8)
        c = rng.choice(enumerate_c(h_mat))
        cone = path_table(h_mat, c)
        f = corner_minimum_excluding_vertex(cone).f_star
        w, delta = cone.weights, cone.delta
        budget = delta * f
        direct = 0
        for y in itertools.product(*(range(budget // w[i] + 1) for i in range(n))):
            if sum(w[i] * y[i] for i in range(n)) != budget:
                continue
            x = gauss_solve(h_mat, tuple(-v for v in y))
            if all(xi.denominator == 1 for xi in x):
                direct += 1
        assert count_minimum_attainers(cone, f) == direct


def test_one_path_table_answers_every_h():
    # corner_minimum reads every reduced h off the one shortest-path table of
    # (H, c); the vertex-excluding minimum reads its n targets -e_j off it too.
    import itertools

    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(1, 3)
        h_mat = random_hnf(rng, n, 12)
        for c in rng.sample(enumerate_c(h_mat), min(3, len(enumerate_c(h_mat)))):
            for h in itertools.product(*(range(h_mat[i][i]) for i in range(n))):
                assert corner_minimum(h_mat, h, c).f_star == oracle_minimum(h_mat, h, c).f_star
            separate = min(
                oracle_minimum(h_mat, tuple(-1 if i == j else 0 for i in range(n)), c).f_star
                for j in range(n)
            )
            sol = corner_minimum_excluding_vertex(path_table(h_mat, c))
            assert sol.f_star == separate
            assert sol.witness_x != (0,) * n and dot(c, sol.witness_x) == separate


def test_candidates_for_block_runs_one_dijkstra_per_c(monkeypatch):
    # One Dijkstra per c that needs a cone minimum, and none for any other c,
    # though both families read the block's cones:
    # the empty family needs one for c iff some h != 0 passing the (H|h) gcd
    # rule has w^T h > det(H) (w the paral weights of (H, c); otherwise its
    # c0 range is empty without one), and the lattice family for the c of its
    # vertex-excluding minimum, if it makes one.
    import math

    from deltasimplex import corner_ilp, enumeration
    from deltasimplex.enumeration import candidates_for_block, enumerate_H, enumerate_h
    from deltasimplex.normal_form import paral_weights

    calls, lattice_cs = [], []
    original, excluding = corner_ilp._dijkstra, enumeration.corner_minimum_excluding_vertex

    def counting(table, weights):
        calls.append((table.H, weights))
        return original(table, weights)

    def recording(cone):
        lattice_cs.append(cone.c)
        return excluding(cone)

    monkeypatch.setattr(corner_ilp, "_dijkstra", counting)
    monkeypatch.setattr(enumeration, "corner_minimum_excluding_vertex", recording)
    blocks = runs = skipped = 0
    for delta, n in ((4, 3), (6, 2), (3, 4), (5, 2), (4, 5)):
        for block in enumerate_H(delta, n):
            calls.clear(), lattice_cs.clear()
            candidates_for_block(block, True, True)
            row_gcds = [math.gcd(*row) for row in block.H]
            hs = [
                h for h in enumerate_h(block.H)[1:]
                if all(math.gcd(g, hi) == 1 for g, hi in zip(row_gcds, h))
            ]
            needed = set(lattice_cs)
            for c in enumerate_c(block.H):
                w = paral_weights(block.H, c)
                if any(dot(w, h) > delta for h in hs):
                    needed.add(c)
                elif hs:
                    skipped += 1
            assert sorted(calls) == sorted((block.H, paral_weights(block.H, c)) for c in needed)
            blocks += bool(calls)
            runs += len(calls)
    assert blocks > 0 and skipped > 0
    # A run for every c of a block with a valid h would make 493 (300 at (4, 5)).
    assert runs == 404  # 244 of them at (4, 5)


def test_one_table_read_per_minimum(monkeypatch):
    # A cone runs Dijkstra once, on the first minimum that needs distances,
    # and every later minimum reads that table; neither entry point builds a
    # cone. c0_candidates runs Dijkstra and rebuilds a witness only when
    # w^T h > det(H); otherwise its range is empty and f_star = l_star = 0.
    # The vertex-excluding minimum reads n values and rebuilds and checks one
    # witness, that of the first least value. Each value read reduces h, for
    # its residue class, and each witness h - steps, whose quotient it is;
    # nothing else reduces a right-hand side.
    from deltasimplex import c0_candidates, corner_ilp, enumeration

    builds, reductions, runs, values, witnesses = [], [], [], [], []
    real_build, real_reduce, real_dijkstra = corner_ilp.path_table, corner_ilp._reduce_hnf_rhs, corner_ilp._dijkstra
    real_value, real_witness = corner_ilp.Cone._value, corner_ilp.Cone._witness

    def counting_build(h_mat, c):
        builds.append((h_mat, c))
        return real_build(h_mat, c)

    def counting_reduce(h_mat, rhs):
        reductions.append(rhs)
        return real_reduce(h_mat, rhs)

    def counting_dijkstra(table, weights):
        runs.append(weights)
        return real_dijkstra(table, weights)

    def counting_value(cone, h):
        values.append(h)
        return real_value(cone, h)

    def counting_witness(cone, h, target, f_star):
        witnesses.append(h)
        return real_witness(cone, h, target, f_star)

    def counts():
        assert len(reductions) == len(values) + len(witnesses)
        return len(builds), len(runs), len(values), len(witnesses)

    def clear():
        for calls in (builds, reductions, runs, values, witnesses):
            calls.clear()

    for mod in (corner_ilp, enumeration):
        monkeypatch.setattr(mod, "path_table", counting_build)
    monkeypatch.setattr(corner_ilp, "_reduce_hnf_rhs", counting_reduce)
    monkeypatch.setattr(corner_ilp, "_dijkstra", counting_dijkstra)
    monkeypatch.setattr(corner_ilp.Cone, "_value", counting_value)
    monkeypatch.setattr(corner_ilp.Cone, "_witness", counting_witness)
    rng = random.Random(11)
    checked = skipped = 0
    for _ in range(20):
        n = rng.randint(1, 4)
        h_mat = random_hnf(rng, n, 9)
        group_table(h_mat)  # built now, so that its reductions are not counted below
        targets = [tuple(-1 if i == j else 0 for i in range(n)) for j in range(n)]
        for c in rng.sample(enumerate_c(h_mat), min(2, len(enumerate_c(h_mat)))):
            cone = real_build(h_mat, c)
            w, delta = cone.weights, cone.delta
            h = tuple(rng.randrange(h_mat[i][i]) for i in range(n))
            read = False
            if any(h):
                clear()
                decision = c0_candidates(cone, h)
                read = dot(w, h) > delta
                assert counts() == ((0, 1, 1, 1) if read else (0, 0, 0, 0))
                assert decision.f_star == corner_minimum(h_mat, h, c).f_star
                assert decision.l_star == -dot(w, h) // delta + 1
                if not read:
                    assert (decision.l_star, decision.f_star) == (0, 0)
                checked += 1
                skipped += not read
            minima = [corner_minimum(h_mat, rhs, c) for rhs in targets]
            first = min(range(n), key=lambda j: minima[j].f_star)
            clear()
            sol = corner_minimum_excluding_vertex(cone)
            assert counts() == (0, 0 if read else 1, n, 1)
            assert values == targets
            assert sol == minima[first] and witnesses == [targets[first]]
    assert checked > 5 and 0 < skipped < checked


def test_one_cone_per_h_c_pair(monkeypatch):
    # A block builds one cone per c it reads, however many right-hand sides
    # h read it: candidate_records(4, 5, "empty") builds
    # det(H) = 4 cones in each of its 75 blocks, one per distinct (H, c). The
    # paral weights are computed once per cone; the only other caller is the
    # record validator, which recomputes them for the candidate it checks.
    from collections import Counter

    from deltasimplex import corner_ilp, enumerate_H, enumeration, normal_form
    from deltasimplex.atlas import candidate_records

    builds, weights, ranges, validating = [], [], [0], [False]
    real_build, real_weights, real_validate = corner_ilp.path_table, normal_form.paral_weights, enumeration.validate_normalized
    real_c0 = enumeration.c0_candidates

    def recording_build(h_mat, c):
        builds.append((h_mat, c))
        return real_build(h_mat, c)

    def counting_weights(h_mat, c):
        if not validating[0]:
            weights.append((h_mat, c))
        return real_weights(h_mat, c)

    def validate(ns):
        validating[0] = True
        try:
            return real_validate(ns)
        finally:
            validating[0] = False

    def counting_c0(cone, h):
        ranges[0] += 1
        return real_c0(cone, h)

    for mod in (corner_ilp, normal_form):
        monkeypatch.setattr(mod, "paral_weights", counting_weights)
    monkeypatch.setattr(enumeration, "path_table", recording_build)
    monkeypatch.setattr(enumeration, "validate_normalized", validate)
    monkeypatch.setattr(enumeration, "c0_candidates", counting_c0)
    candidate_records(4, 5, "empty")
    assert len(builds) == len(set(builds)) == len(weights) == 300
    assert Counter(h_mat for h_mat, _ in builds) == {block.H: 4 for block in enumerate_H(4, 5)}
    assert ranges[0] > len(builds)
