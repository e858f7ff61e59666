import itertools
import random

import pytest

from deltasimplex import (
    AffineUnimodularMap,
    InequalitySystem,
    InvariantViolation,
    apply_map,
    check_equivalence,
    compose,
    dedup_families,
    enumerate_families,
    equivalent_normalized_set,
    identity_map,
    inverse,
    key_tuple,
    normalize,
    primitivize,
    reduced_permutations,
    validate_simplex,
)
from deltasimplex.exact_linalg import hnf, max_minors
from deltasimplex.normal_form import _normalize_primitive, key_step

from helpers import brute_force_equivalent, random_simplex, random_unimodular_map, vertex_bijection_equivalent


def test_reduced_permutations_counts():
    assert list(reduced_permutations(((1, 0), (0, 1)))) == [(0, 1)]
    perms = list(reduced_permutations(((1, 0, 0), (0, 1, 0), (0, 0, 2))))
    assert len(perms) == 3 and len(set(perms)) == 3
    h4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 1, 2))
    perms = list(reduced_permutations(h4))
    assert len(perms) == 12 and len(set(perms)) == 12


def test_triangle_equivalent_set_collapses(triangle):
    eq = equivalent_normalized_set(triangle)
    assert len(eq.records) == 1
    ns, _, _ = normalize(triangle, (0, 1))
    assert key_tuple(ns) in eq.records


def test_equivalent_set_key_invariance():
    rng = random.Random(71)
    for _ in range(10):
        n = rng.randint(1, 3)
        sys = random_simplex(rng, n, entry_bound=4)
        keys = set(equivalent_normalized_set(sys).records)
        m = random_unimodular_map(rng, n, entry_bound=6, trans_bound=5)
        keys2 = set(equivalent_normalized_set(apply_map(sys, m)).records)
        assert keys == keys2


def test_equivalent_set_maps_are_sound():
    rng = random.Random(72)
    for _ in range(6):
        n = rng.randint(1, 3)
        sys = random_simplex(rng, n, entry_bound=4)
        source_vertices = frozenset(validate_simplex(sys).vertices)
        eq = equivalent_normalized_set(sys)
        for ns, stored in eq.records.values():
            image = frozenset(stored.apply(v) for v in source_vertices)
            assert image == frozenset(validate_simplex(ns.system()).vertices)


def test_equivalent_set_contains_normalizations_of_mapped_system():
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(1, 3)
        sys = random_simplex(rng, n, entry_bound=4)
        eq_keys = set(equivalent_normalized_set(sys).records)
        m = random_unimodular_map(rng, n, entry_bound=6, trans_bound=5)
        moved = apply_map(sys, m)
        from deltasimplex import primitivize

        prim = primitivize(moved)
        meta = validate_simplex(prim)
        for base in meta.max_det_bases:
            ns, _, _ = normalize(moved, base)
            assert key_tuple(ns) in eq_keys


def _two_stage_equivalent_set(sys):
    """Reference loop: rebuild each row-permuted block system, renormalize it over range(n)."""
    prim = primitivize(sys)
    meta = validate_simplex(prim)
    n = prim.n
    out = {}
    for base in meta.max_det_bases:
        ns0, m0, _ = _normalize_primitive(prim, base, meta.delta)
        for perm in reduced_permutations(ns0.H):
            rows = [ns0.H[p] for p in perm] + [ns0.c]
            rhs = [ns0.h[p] for p in perm] + [ns0.c0]
            ns1, m1, _ = _normalize_primitive(InequalitySystem(n, rows, rhs), tuple(range(n)), meta.delta)
            out.setdefault(key_tuple(ns1), (ns1, inverse(compose(m0, m1))))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_equivalent_set_matches_two_stage_reference(seed):
    # Renormalizing one system over each permutation as an ordered base must
    # give the same keys, forms and maps, in the same order, as rebuilding a
    # row-permuted system per permutation.
    rng = random.Random(900 + seed)
    forms = 0
    for _ in range(15):
        n = rng.randint(1, 4)
        sys = random_simplex(rng, n, entry_bound=4 if n < 4 else 3)
        order = rng.sample(range(n + 1), n + 1)
        shuffled = InequalitySystem(n, [sys.A[i] for i in order], [sys.b[i] for i in order])
        got = equivalent_normalized_set(shuffled).records
        want = _two_stage_equivalent_set(shuffled)
        assert list(got) == list(want)
        for key, (ns, m) in want.items():
            assert got[key] == (ns, m)
        forms += len(want)
    assert forms > 15


def _starting_keys(prim, meta):
    """Distinct keys of the maximal bases' starting forms, one per base that the search expands."""
    return {key_step(prim, base, meta.delta).key for base in meta.max_det_bases}


def test_equivalent_set_builds_one_system_per_maximal_base(monkeypatch):
    # Each distinct starting form is renormalized in place over every
    # permutation; no system is rebuilt per permutation, and a base whose
    # starting form an earlier base already gave is not expanded again.
    built = {"count": 0}
    post_init = InequalitySystem.__post_init__

    def counting_post_init(self):
        built["count"] += 1
        post_init(self)

    monkeypatch.setattr(InequalitySystem, "__post_init__", counting_post_init)
    rng = random.Random(77)
    systems = []
    for _ in range(20):
        n = rng.randint(2, 4)
        systems.append(random_simplex(rng, n, entry_bound=4 if n < 4 else 3))
    # Cyclically symmetric: three maximal bases, two distinct starting forms.
    systems.append(InequalitySystem(2, ((-2, 1), (1, -2), (1, 1)), (0, 0, 1)))
    permutations = 0
    repeated_starts = 0
    for sys in systems:
        prim = primitivize(sys)
        meta = validate_simplex(prim)
        for base in meta.max_det_bases:
            ns0, _, _ = _normalize_primitive(prim, base, meta.delta)
            permutations += len(list(reduced_permutations(ns0.H)))
        starts = len(_starting_keys(prim, meta))
        repeated_starts += starts < len(meta.max_det_bases)
        built["count"] = 0
        equivalent_normalized_set(prim, meta)
        assert built["count"] == starts
    assert permutations > 40
    assert repeated_starts > 0


def test_key_step_key_matches_built_form():
    # The search compares keys before it builds a form, so the key step's key
    # must be exactly key_tuple of the form the build step makes from it.
    rng = random.Random(78)
    checked = 0
    for n in [1, 2, 3, 4, 5] * 8:
        prim = primitivize(random_simplex(rng, n, entry_bound=4 if n < 4 else 3))
        meta = validate_simplex(prim)
        for base in meta.max_det_bases:
            start = key_step(prim, base, meta.delta)
            ns0 = start.form()
            assert start.key == key_tuple(ns0)
            sys0 = ns0.system()
            for perm in reduced_permutations(ns0.H):
                step = key_step(sys0, perm, meta.delta)
                assert step.key == key_tuple(step.form())
                checked += 1
    assert checked > 300


def _search_without_identity_reuse(prim, meta):
    """The search as it was before the identity order reused the starting form.

    Every reached row order that is not a unit-pivot swap twin is keyed, the
    identity included. Returns (records, key steps, expanded bases, forms
    first stored at their own base's identity order).
    """
    from deltasimplex.equivalence import _unit_swap_twin

    out = {}
    starts = set()
    steps = expanded = at_identity = 0
    for base in meta.max_det_bases:
        start = key_step(prim, base, meta.delta)
        steps += 1
        if start.key in starts:
            continue
        starts.add(start.key)
        expanded += 1
        ns0, m0 = start.form(), start.map()
        sys0 = ns0.system()
        units = {}
        for perm in reduced_permutations(ns0.H):
            twin = _unit_swap_twin(perm, units)
            if twin is not None:
                units[perm] = units[twin]
                continue
            step = key_step(sys0, perm, meta.delta)
            steps += 1
            units[perm] = frozenset(step.row_src[: step.s])
            if step.key not in out:
                at_identity += perm == tuple(range(prim.n))
                out[step.key] = (step.form(), inverse(compose(m0, step.map())))
    return out, steps, expanded, at_identity


def test_equivalent_set_validates_once_per_new_key(monkeypatch):
    # A repeat key is never built or validated again: one validation per
    # distinct starting form of the maximal bases plus one per stored form,
    # less the forms stored at their own base's identity order, which is the
    # starting form already built and validated.
    from deltasimplex import normal_form

    calls = {"count": 0}
    validate = normal_form.validate_normalized

    def counting_validate(ns):
        calls["count"] += 1
        return validate(ns)

    monkeypatch.setattr(normal_form, "validate_normalized", counting_validate)
    rng = random.Random(79)
    permutations = 0
    repeated_starts = 0
    reused = 0
    for _ in range(20):
        n = rng.randint(2, 4)
        prim = primitivize(random_simplex(rng, n, entry_bound=4 if n < 4 else 3))
        meta = validate_simplex(prim)
        for base in meta.max_det_bases:
            ns0, _, _ = _normalize_primitive(prim, base, meta.delta)
            permutations += len(list(reduced_permutations(ns0.H)))
        starts = len(_starting_keys(prim, meta))
        repeated_starts += starts < len(meta.max_det_bases)
        *_, at_identity = _search_without_identity_reuse(prim, meta)
        calls["count"] = 0
        eq = equivalent_normalized_set(prim, meta)
        assert calls["count"] == starts + len(eq.records) - at_identity
        reused += at_identity
    assert permutations > 40
    assert repeated_starts > 0
    assert reused > 0


def test_identity_order_reuses_the_starting_form(monkeypatch):
    # The identity row order of an expanded base renormalizes its starting
    # form onto itself (U = I, sigma = id, x0 = 0), so the search skips its
    # key step: exactly one key step fewer per expanded base than the search
    # that keys it, with the same keys in the same order, forms and maps.
    from deltasimplex import equivalence

    calls = {"count": 0}
    def counting_key_step(*args):
        calls["count"] += 1
        return key_step(*args)

    monkeypatch.setattr(equivalence, "key_step", counting_key_step)
    rng = random.Random(82)
    identities = 0
    for n in [2, 3, 4, 5] * 15:
        prim = primitivize(random_simplex(rng, n, entry_bound=5 if n < 5 else 3))
        meta = validate_simplex(prim)
        for base in meta.max_det_bases:
            start = key_step(prim, base, meta.delta)
            step = key_step(start.form().system(), tuple(range(n)), meta.delta)
            assert step.key == start.key
            assert step.U == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            assert step.x0 == (0,) * n
            identities += 1
        want, steps, expanded, _ = _search_without_identity_reuse(prim, meta)
        calls["count"] = 0
        got = equivalent_normalized_set(prim, meta).records
        assert calls["count"] == steps - expanded
        assert list(got) == list(want)
        for key, (ns, m) in want.items():
            assert got[key] == (ns, m)
    assert identities > 50


def test_adjacent_unit_pivot_swap_keeps_the_key():
    # The lemma behind the search's swap rule: if rows i and i+1 of an ordered
    # base both get unit pivots (A @ U == H with H_ii == H_(i+1)(i+1) == 1),
    # the order with those two rows swapped has Hermite form P H P and
    # coordinate change U P, P the swap of coordinates i and i+1, and so the
    # same normal key. Checked on every row order of every maximal base.
    rng = random.Random(80)
    checked = 0
    for n in [2, 3, 4, 5] * 6:
        prim = primitivize(random_simplex(rng, n, entry_bound=5 if n < 5 else 3))
        meta = validate_simplex(prim)
        for base in meta.max_det_bases:
            for order in itertools.permutations(base):
                step = key_step(prim, order, meta.delta)
                unit_rows = set(step.row_src[: step.s])
                h_mat, u = hnf(tuple(prim.A[r] for r in order))
                for i in range(n - 1):
                    if order[i] not in unit_rows or order[i + 1] not in unit_rows:
                        continue
                    swap = list(range(n))
                    swap[i], swap[i + 1] = i + 1, i
                    swapped = tuple(order[j] for j in swap)
                    h2, u2 = hnf(tuple(prim.A[r] for r in swapped))
                    assert h2 == tuple(tuple(h_mat[a][b] for b in swap) for a in swap)
                    assert u2 == tuple(tuple(row[b] for b in swap) for row in u)
                    assert key_step(prim, swapped, meta.delta).key == step.key
                    checked += 1
    assert checked > 1000


@pytest.mark.parametrize("entry_bound", [3, 9], ids=["small-entries", "large-entries"])
def test_pruned_search_matches_unpruned_reference(monkeypatch, entry_bound):
    # Skipping repeated starting forms and unit-pivot swaps must not change
    # the set: same keys in the same order, same forms, same maps as the
    # reference loop that renormalizes every reduced permutation of every
    # maximal base. The counting key step shows that the pruning fires.
    from deltasimplex import equivalence

    calls = {"count": 0}
    def counting_key_step(*args):
        calls["count"] += 1
        return key_step(*args)

    monkeypatch.setattr(equivalence, "key_step", counting_key_step)
    rng = random.Random(81 + entry_bound)
    permutations = 0
    deep = 0
    for n in [2, 3, 4, 5] * 4:
        sys = random_simplex(rng, n, entry_bound=entry_bound if n < 5 else min(entry_bound, 5))
        prim = primitivize(sys)
        meta = validate_simplex(prim)
        for base in meta.max_det_bases:
            ns0, _, _ = _normalize_primitive(prim, base, meta.delta)
            permutations += len(list(reduced_permutations(ns0.H)))
        want = _two_stage_equivalent_set(sys)
        got = equivalent_normalized_set(sys).records
        assert list(got) == list(want)
        for key, (ns, m) in want.items():
            assert got[key] == (ns, m)
        deep += any(ns.k >= 2 for ns, _ in want.values())
    assert deep > 0
    assert 0 < calls["count"] < permutations


# Row orders of one simplex that the reduced-permutation search judges
# inequivalent: base orders (0,2,1) and (1,2,0) of S's normalized system give
# B = (3,4) and B = (1,5), and only the first is a reduced permutation.
_INCOMPLETE_S = InequalitySystem(3, [(1, 0, 0), (0, 1, 0), (1, 2, 7), (-1, -2, -5)], [0, 0, 2, -1])
_INCOMPLETE_T = InequalitySystem(
    3, [_INCOMPLETE_S.A[i] for i in (1, 2, 0, 3)], [_INCOMPLETE_S.b[i] for i in (1, 2, 0, 3)]
)


@pytest.mark.xfail(strict=True, reason="the equivalent-set search is incomplete: identity-row orders can give new forms")
@pytest.mark.parametrize("pair", [(_INCOMPLETE_S, _INCOMPLETE_T), (_INCOMPLETE_T, _INCOMPLETE_S)], ids=["S-T", "T-S"])
def test_row_reordered_simplex_is_equivalent(pair):
    assert check_equivalence(*pair).equivalent


def test_witness_check_rejects_a_shifted_witness(monkeypatch):
    # The vertex-set check runs on integer points: a witness moved by e_1
    # must fail it, for S against itself and against a unimodular image of S
    # whose rows keep their order (so the least-base fast path composes it).
    from deltasimplex import equivalence

    compose_ = equivalence.compose

    def shifted_compose(m2, m1):
        m = compose_(m2, m1)
        return AffineUnimodularMap(m.U, (m.x0[0] + 1,) + m.x0[1:])

    rng = random.Random(85)
    cases = []
    for n in [1, 2, 3, 4, 5] * 4:
        sys = random_simplex(rng, n, entry_bound=4 if n < 5 else 3)
        moved = apply_map(sys, random_unimodular_map(rng, n, entry_bound=6, trans_bound=5))
        assert check_equivalence(sys, moved).equivalent
        cases.append((sys, moved))
    monkeypatch.setattr(equivalence, "compose", shifted_compose)
    for sys, moved in cases:
        for other in (sys, moved):
            with pytest.raises(InvariantViolation, match="vertex-set verification"):
                check_equivalence(sys, other)


def test_check_equivalence_self_is_identity(triangle):
    result = check_equivalence(triangle, triangle)
    assert result.equivalent
    assert result.witness == identity_map(2)


def test_check_equivalence_round_trip():
    rng = random.Random(74)
    for _ in range(15):
        n = rng.randint(1, 3)
        sys = random_simplex(rng, n)
        m = random_unimodular_map(rng, n)
        moved = apply_map(sys, m)
        result = check_equivalence(sys, moved)
        assert result.equivalent
        verts = validate_simplex(sys).vertices
        image = {result.witness.apply(v) for v in verts}
        assert image == set(validate_simplex(moved).vertices)


def test_check_equivalence_symmetry():
    rng = random.Random(75)
    for _ in range(8):
        n = rng.randint(1, 2)
        a = random_simplex(rng, n, entry_bound=4)
        b = random_simplex(rng, n, entry_bound=4)
        assert check_equivalence(a, b).equivalent == check_equivalence(b, a).equivalent


def test_check_equivalence_delta_mismatch(triangle):
    other = InequalitySystem(2, ((-1, 0), (0, -1), (3, 1)), (0, 0, 2))
    result = check_equivalence(triangle, other)
    assert not result.equivalent
    assert result.certificate == "delta-mismatch"


def test_check_equivalence_dimension_mismatch(triangle):
    seg = InequalitySystem(1, ((1,), (-1,)), (1, 0))
    result = check_equivalence(triangle, seg)
    assert not result.equivalent
    assert result.certificate == "dimension-mismatch"


def test_check_equivalence_minor_multiset_mismatch():
    a = InequalitySystem(1, ((3,), (-3,)), (2, -1))
    b = InequalitySystem(1, ((3,), (-1,)), (2, 0))
    assert sorted(abs(m) for _, m in max_minors(a.A)) != sorted(abs(m) for _, m in max_minors(b.A))
    result = check_equivalence(a, b)
    assert not result.equivalent
    assert result.certificate == "minor-multiset-mismatch"


def test_check_equivalence_same_invariants_not_equivalent():
    # [1/3, 2/3] vs [-1/3, 1/3]: same dimension, delta, and |minor| multiset
    # {3, 3}, but the second contains the origin, so only the full search can
    # separate them.
    a = InequalitySystem(1, ((3,), (-3,)), (2, -1))
    b = InequalitySystem(1, ((3,), (-3,)), (1, 1))
    result = check_equivalence(a, b)
    assert not result.equivalent
    assert result.certificate == "search-exhausted"


def test_segment_classes_equivalent_forms():
    # [1/2, 2/3] and [1/3, 1/2] are the same class (x -> 1 - x)
    a = InequalitySystem(1, ((3,), (-2,)), (2, -1))
    b = InequalitySystem(1, ((2,), (-3,)), (1, -1))
    result = check_equivalence(a, b)
    assert result.equivalent
    # ... and distinct from [1/3, 2/3]
    c = InequalitySystem(1, ((3,), (-3,)), (2, -1))
    assert not check_equivalence(a, c).equivalent


def test_dedup_exact_duplicates():
    empties, _ = enumerate_families(3, 1)
    doubled = empties + empties
    assert len(dedup_families(doubled)) == len(dedup_families(empties)) == 2


def test_dedup_idempotent():
    empties, lattices = enumerate_families(3, 2)
    once = dedup_families(empties + lattices)
    twice = dedup_families(once)
    assert [r.ns for r in once] == [r.ns for r in twice]


def test_dedup_survivor_is_least_key():
    empties, _ = enumerate_families(3, 2)
    survivors = dedup_families(empties)
    keys = [key_tuple(r.ns) for r in survivors]
    assert keys == sorted(keys)
    for rec in survivors:
        eq = equivalent_normalized_set(rec.system())
        present = [k for k in eq.records if k in set(key_tuple(r.ns) for r in empties)]
        assert key_tuple(rec.ns) == min(present)


def test_dedup_survivors_pairwise_inequivalent():
    for delta, n in ((3, 1), (3, 2), (4, 2)):
        empties, lattices = enumerate_families(delta, n)
        survivors = dedup_families(empties + lattices)
        for i in range(len(survivors)):
            for j in range(i + 1, len(survivors)):
                result = check_equivalence(survivors[i].system(), survivors[j].system())
                assert not result.equivalent


def test_brute_force_oracle_agreement_dim_one(atlas_cache):
    records = []
    for delta in (1, 2, 3):
        records.extend(atlas_cache(delta, 1))
    for i in range(len(records)):
        for j in range(len(records)):
            a, b = records[i].system(), records[j].system()
            ours = check_equivalence(a, b).equivalent
            oracle = brute_force_equivalent(a, b) is not None
            assert ours == oracle == (i == j)


def test_oracle_found_maps_are_always_found():
    # One-sided completeness on fully random pairs: whenever the bounded
    # exhaustive search finds a unimodular map, the decision procedure must
    # report equivalence too. (The converse can exceed the oracle's bounds.)
    rng = random.Random(616)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 2)
        a = random_simplex(rng, n, entry_bound=3)
        b = random_simplex(rng, n, entry_bound=3)
        if brute_force_equivalent(a, b) is not None:
            found += 1
            assert check_equivalence(a, b).equivalent
    assert found >= 1


def test_vertex_bijection_oracle():
    # The exact oracle finds a map for every unimodular image, the map it
    # returns carries the vertices across, and wherever the bounded search
    # finds a map, so does the exact oracle.
    rng = random.Random(1111)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_simplex(rng, n, entry_bound=4)
        b = apply_map(a, random_unimodular_map(rng, n, entry_bound=6, trans_bound=5))
        u, x0 = vertex_bijection_equivalent(a, b)
        image = {
            tuple(sum(u[i][j] * v[j] for j in range(n)) + x0[i] for i in range(n))
            for v in validate_simplex(a).vertices
        }
        assert image == set(validate_simplex(b).vertices)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 2)
        a, b = random_simplex(rng, n, entry_bound=3), random_simplex(rng, n, entry_bound=3)
        exact = vertex_bijection_equivalent(a, b) is not None
        assert exact == check_equivalence(a, b).equivalent
        if brute_force_equivalent(a, b) is not None:
            assert exact
            found += 1
    assert found >= 1


def test_vertex_bijection_oracle_separates_small_atlases(atlas_cache):
    for delta, n in ((3, 2), (4, 2), (3, 3)):
        records = atlas_cache(delta, n)
        for i, a in enumerate(records):
            for j, b in enumerate(records):
                assert (vertex_bijection_equivalent(a.system(), b.system()) is not None) == (i == j)


def test_invariants_constant_across_equivalent_set():
    from deltasimplex import primitivize

    rng = random.Random(76)
    for _ in range(5):
        n = rng.randint(1, 2)
        prim = primitivize(random_simplex(rng, n, entry_bound=4))
        delta = validate_simplex(prim).delta
        minors = sorted(abs(m) for _, m in max_minors(prim.A))
        for ns, _ in equivalent_normalized_set(prim).records.values():
            assert ns.delta == delta
            assert sorted(abs(m) for _, m in max_minors(ns.full_matrix())) == minors


def test_check_equivalence_validates_each_system_once(monkeypatch):
    # The equivalent-set search reuses the primitive system and its meta, so a
    # check validates S and T once each, also when the fast path misses.
    from deltasimplex import equivalence

    equivalence._search_legs.cache_clear()
    counts = {"validate": 0, "search": 0}
    validate, search = equivalence.validate_simplex, equivalence._search_legs

    def counting_validate(sys):
        counts["validate"] += 1
        return validate(sys)

    def counting_search(prim, meta):
        counts["search"] += 1
        return search(prim, meta)

    monkeypatch.setattr(equivalence, "validate_simplex", counting_validate)
    monkeypatch.setattr(equivalence, "_search_legs", counting_search)
    rng = random.Random(74)
    for _ in range(30):
        n = rng.randint(2, 3)
        sys = random_simplex(rng, n, entry_bound=4)
        moved = apply_map(sys, random_unimodular_map(rng, n, entry_bound=6, trans_bound=5))
        order = rng.sample(range(n + 1), n + 1)  # a row order that can miss the fast path
        moved = InequalitySystem(n, tuple(moved.A[i] for i in order), tuple(moved.b[i] for i in order))
        before = counts["validate"]
        check_equivalence(sys, moved)
        assert counts["validate"] - before == 2
    assert counts["search"] > 0


def test_check_equivalence_builds_the_fast_path_form_only_on_a_hit(monkeypatch):
    # T's least-base form is built and validated first, on every path. S's
    # least-base step is keyed next and builds only its map, and only when
    # its key equals T's: its form is then T's, already validated. On a miss
    # nothing of S is built before the search, which builds S's forms itself.
    from deltasimplex import equivalence
    from deltasimplex.normal_form import KeyStep

    equivalence._search_legs.cache_clear()
    events = []
    form, leg_map, search = KeyStep.form, KeyStep.map, equivalence._search_legs

    def counting_form(step):
        events.append(("form", step.key))
        return form(step)

    def counting_map(step):
        events.append(("map", step.key))
        return leg_map(step)

    def counting_search(prim, meta):
        before = len(events)
        result = search(prim, meta)
        del events[before:]
        events.append("search")
        return result

    monkeypatch.setattr(KeyStep, "form", counting_form)
    monkeypatch.setattr(KeyStep, "map", counting_map)
    monkeypatch.setattr(equivalence, "_search_legs", counting_search)
    rng = random.Random(76)
    outcomes = set()
    for _ in range(30):
        n = rng.randint(2, 3)
        sys = random_simplex(rng, n, entry_bound=4)
        moved = apply_map(sys, random_unimodular_map(rng, n, entry_bound=6, trans_bound=5))
        order = rng.sample(range(n + 1), n + 1)
        moved = InequalitySystem(n, tuple(moved.A[i] for i in order), tuple(moved.b[i] for i in order))
        events.clear()
        result = check_equivalence(sys, moved)  # the search is incomplete (see the module docstring)
        kind, key_t = events[0]
        assert kind == "form"
        if "search" in events:
            assert events[1] == "search"  # nothing of S built before the search on a miss
            assert events[2:] == ([("map", key_t)] if result.equivalent else [])
        else:
            assert events[1:] == [("map", key_t), ("map", key_t)]  # S's map, then T's
        outcomes.add("search" in events)
    assert outcomes == {True, False}


def _equivalent_set_before_the_split(prim, meta):
    """The equivalent-set search as one loop that builds a map for every new key.

    This is the search before the map-free `_search` was split out of it:
    same rules, same keying order, and each new form is built with its map
    by its `KeyStep` and stored with the map source -> form.
    """
    from deltasimplex.equivalence import _unit_swap_twin

    out = {}
    starts = set()
    identity = tuple(range(prim.n))
    for base in meta.max_det_bases:
        start = key_step(prim, base, meta.delta)
        if start.key in starts:
            continue
        starts.add(start.key)
        ns0, m0 = start.form(), start.map()
        sys0 = ns0.system()
        units = {}
        for perm in reduced_permutations(ns0.H):
            twin = _unit_swap_twin(perm, units)
            if twin is not None:
                units[perm] = units[twin]
                continue
            if perm == identity:
                units[perm] = frozenset(range(ns0.s))
                if start.key not in out:
                    out[start.key] = (ns0, inverse(m0))
                continue
            step = key_step(sys0, perm, meta.delta)
            units[perm] = frozenset(step.row_src[: step.s])
            if step.key not in out:
                out[step.key] = (step.form(), inverse(compose(m0, step.map())))
    return out


def test_equivalent_set_matches_the_loop_that_maps_every_key():
    # The public set is built from the map-free search: same keys in the same
    # order, same forms and same maps as the loop that built every map itself.
    rng = random.Random(86)
    forms = deep = 0
    for n in [1, 2, 3, 4, 5] * 8:
        prim = primitivize(random_simplex(rng, n, entry_bound=5 if n < 5 else 3))
        meta = validate_simplex(prim)
        want = _equivalent_set_before_the_split(prim, meta)
        got = equivalent_normalized_set(prim, meta).records
        assert list(got) == list(want)
        for key, (ns, m) in want.items():
            assert got[key] == (ns, m)
        forms += len(want)
        deep += any(ns.k >= 2 for ns, _ in want.values())
    assert forms > 60 and deep > 0


def _equivalence_queries(rng, count):
    """Seeded (S, T) pairs: moved and row-shuffled images of S, and pairs of unrelated simplices."""
    pairs = []
    for _ in range(count):
        n = rng.randint(2, 4)
        sys = random_simplex(rng, n, entry_bound=4 if n < 4 else 3)
        moved = apply_map(sys, random_unimodular_map(rng, n, entry_bound=6, trans_bound=5))
        order = rng.sample(range(n + 1), n + 1)
        shuffled = InequalitySystem(n, tuple(moved.A[i] for i in order), tuple(moved.b[i] for i in order))
        other = random_simplex(rng, n, entry_bound=4 if n < 4 else 3)
        pairs += [(sys, moved), (sys, shuffled), (sys, other), (sys, sys)]
    # Distinct classes that share (n, delta, minor multiset) reach the search and miss.
    groups = {}
    for rec in dedup_families(sum(enumerate_families(4, 3), [])):
        minors = sorted(abs(m) for _, m in max_minors(rec.ns.full_matrix()))
        groups.setdefault(tuple(minors), []).append(rec.system())
    for group in groups.values():
        pairs += [(a, b) for a, b in zip(group, group[1:])]
    return pairs


def test_warm_and_cold_memo_give_the_same_answer():
    # check_equivalence reads S's search through a memo: a warm memo must give
    # the answer, certificate and witness of a cold one, and it must be read.
    from deltasimplex import equivalence

    pairs = _equivalence_queries(random.Random(87), 25)
    cold = []
    for sys_s, sys_t in pairs:
        equivalence._search_legs.cache_clear()
        cold.append(check_equivalence(sys_s, sys_t))
    equivalence._search_legs.cache_clear()
    warm = [check_equivalence(sys_s, sys_t) for sys_s, sys_t in pairs]
    warm += [check_equivalence(sys_s, sys_t) for sys_s, sys_t in pairs]
    assert warm == cold + cold
    assert equivalence._search_legs.cache_info().hits > 0
    assert {r.certificate for r in cold} >= {None, "search-exhausted"}


def test_equivalence_memo_is_bounded_by_the_package_size():
    from deltasimplex import equivalence
    from deltasimplex.exact_linalg import MEMO_CACHE_SIZE

    assert equivalence._search_legs.cache_info().maxsize == MEMO_CACHE_SIZE


def test_dedup_builds_no_map(monkeypatch):
    # dedup_families reads the keys of each search only, so it constructs no
    # AffineUnimodularMap at all, through the public constructor or the
    # trusted one that compose and inverse use.
    built = {"count": 0}
    post_init, trusted = AffineUnimodularMap.__post_init__, AffineUnimodularMap._trusted.__func__

    def counting_post_init(self):
        built["count"] += 1
        post_init(self)

    def counting_trusted(cls, u, x0):
        built["count"] += 1
        return trusted(cls, u, x0)

    monkeypatch.setattr(AffineUnimodularMap, "__post_init__", counting_post_init)
    monkeypatch.setattr(AffineUnimodularMap, "_trusted", classmethod(counting_trusted))
    empties, lattices = enumerate_families(4, 4)
    records = empties + lattices
    kept = dedup_families(records)
    assert built["count"] == 0
    assert len(records) > len(kept) > 0
    equivalent_normalized_set(records[0].system())
    assert built["count"] > 0
