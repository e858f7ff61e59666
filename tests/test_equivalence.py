import itertools
import math
import random

import pytest

from deltasimplex import (
    AffineUnimodularMap,
    EquivalenceResult,
    InequalitySystem,
    InvariantViolation,
    apply_map,
    check_equivalence,
    compose,
    dedup_families,
    equivalent_normalized_set,
    inverse,
    key_tuple,
    normalize,
    primitivize,
    reduced_permutations,
    validate_simplex,
)
from deltasimplex.atlas import _shard_key, candidate_records
from deltasimplex.equivalence import _lattice_invariant, class_keys
from deltasimplex.exact_linalg import hnf
from deltasimplex.normal_form import _normalize_primitive, key_step

from helpers import (
    identity_map,
    max_minors,
    random_simplex,
    random_unimodular_map,
    ref_equivalent_set,
    ref_row_order_keys,
    shuffled_image,
    shuffled_rows,
    vertex_bijection_equivalent,
)


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
        source_points = validate_simplex(sys).points
        eq = equivalent_normalized_set(sys)
        for ns, stored in eq.records.values():
            image = frozenset(map(stored.image, source_points))
            assert image == frozenset(validate_simplex(ns.system()).points)


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
        shuffled = shuffled_rows(rng, sys)
        got = equivalent_normalized_set(shuffled).records
        want = ref_equivalent_set(shuffled, rules=(), rebuild=True).records
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
    new = InequalitySystem.__new__

    def counting_new(cls, *args, **kwargs):
        built["count"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(InequalitySystem, "__new__", counting_new)
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


def test_equivalent_set_validates_once_per_new_key(monkeypatch):
    # A repeat key is never built or validated again: one validation per
    # distinct starting form of the maximal bases, in the search, plus one
    # per stored form, when the set is built. A form first stored as its
    # base's starting form is built again from its key step, so the sample
    # must hold such forms too.
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
        at_start = ref_equivalent_set(prim, rules=(1, 2)).at_start
        calls["count"] = 0
        eq = equivalent_normalized_set(prim, meta)
        assert calls["count"] == starts + len(eq.records)
        reused += at_start
    assert permutations > 40
    assert repeated_starts > 0
    assert reused > 0


def test_identity_order_reuses_the_starting_form(monkeypatch):
    # The identity row order of an expanded base renormalizes its starting
    # form onto itself (U = I, sigma = id, x0 = 0), and the search yields
    # that form before its loop, so it skips the identity's key step: exactly
    # one key step fewer per expanded base than the search that keys it,
    # with the same keys in the same order, forms and maps.
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
        want, steps, expanded, _ = ref_equivalent_set(prim, rules=(1, 2))
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
    # Skipping repeated starting forms, unit-pivot swaps and the identity
    # order must not change the set: same keys in the same order, same forms,
    # same maps as the reference loop that renormalizes every reduced
    # permutation of every maximal base. The counting key step shows that
    # the pruning fires.
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
        want = ref_equivalent_set(sys, rules=(), rebuild=True).records
        got = equivalent_normalized_set(sys).records
        assert list(got) == list(want)
        for key, (ns, m) in want.items():
            assert got[key] == (ns, m)
        deep += any(ns.k >= 2 for ns, _ in want.values())
    assert deep > 0
    assert 0 < calls["count"] < permutations


def _search_shape_cases(atlas_cache):
    """Primitive systems for the search-shape test: seeded ones up to n = 5 and two atlases' records."""
    from deltasimplex import enumerate_atlas

    rng = random.Random(83)
    systems = [random_simplex(rng, n, entry_bound=5 if n < 5 else 3) for n in [1, 2, 3, 4, 5] * 6]
    records = atlas_cache(4, 5) + enumerate_atlas(3, 8, "lattice", up_to=True)
    return [primitivize(sys) for sys in systems] + [rec.system() for rec in records]


def test_search_starts_at_the_least_base_and_each_base_at_its_starting_form(monkeypatch, atlas_cache):
    # The search walks the maximal bases least first and yields each expanded
    # base's starting step, if its key is new, before its other keys and
    # before that base builds its starting form; so its first pair is the
    # least base's starting step, which check_equivalence's fast path reads.
    # A unimodular image T of S with the same row order has S's least-base
    # key, and its witness is the composite of the two least-base maps. Each
    # expanded base makes at most sum_{j <= log2 delta} n!/(n-j)! key steps.
    from deltasimplex import equivalence
    from deltasimplex.equivalence import _search
    from deltasimplex.normal_form import KeyStep

    built = set()  # keys of the forms built
    form = KeyStep.form

    def recording_form(step):
        built.add(step.key)
        return form(step)

    monkeypatch.setattr(KeyStep, "form", recording_form)
    rng = random.Random(84)
    expanded = moved_witnesses = 0
    for prim in _search_shape_cases(atlas_cache):
        meta = validate_simplex(prim)
        n, least = prim.n, min(meta.max_det_bases)
        bases = []  # the expanded bases' starting steps, in walk order
        seen = set()
        built.clear()
        for step, start in _search(prim, meta):
            if not bases or start is not bases[-1]:
                assert all(start is not s for s in bases)  # one contiguous run per base
                bases.append(start)
                if start.key not in seen:
                    assert step is start and start.key not in built
            else:
                assert step is not start
            seen.add(step.key)
        first, first_start = next(_search(prim, meta))
        assert first is first_start and first == key_step(prim, least, meta.delta)
        base_of = [tuple(sorted(start.row_src[:n])) for start in bases]
        assert base_of[0] == least and base_of == sorted(base_of)
        expanded += len(bases)

        moved = apply_map(prim, random_unimodular_map(rng, n, entry_bound=4, trans_bound=4))
        witness = compose(key_step(moved, least, meta.delta).map(), inverse(key_step(prim, least, meta.delta).map()))
        assert check_equivalence(prim, moved).witness == witness
        moved_witnesses += witness != identity_map(n)

        steps = []  # per key step: whether it keys the source system (a base's starting step)
        real_key_step = equivalence.key_step

        def counting_key_step(sys, base, delta):
            steps.append(sys is prim)
            return real_key_step(sys, base, delta)

        monkeypatch.setattr(equivalence, "key_step", counting_key_step)
        list(_search(prim, meta))
        monkeypatch.setattr(equivalence, "key_step", real_key_step)
        per_base = [1 + len(list(run)) for on_source, run in itertools.groupby(steps) if not on_source]
        bound = sum(math.perm(n, j) for j in range(meta.delta.bit_length()))
        assert len(per_base) <= len(bases) and max(per_base, default=1) <= bound
    assert expanded > 100 and moved_witnesses > 50


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


def test_lattice_invariant_agrees_on_equivalent_pairs(atlas_cache):
    # Every pair is equivalent: seeded simplices and the (4, 5) both atlas,
    # each against a row-shuffled unimodular image, and the pinned S/T pair,
    # which the search calls inequivalent. The invariant must agree on each,
    # so check_equivalence never answers invariant-mismatch on them. So must
    # the dedup shard key of the two forms at their least maximal bases, or
    # a class could cross a shard.
    rng = random.Random(89)
    pairs = []
    for n in [2, 3, 4] * 300 + [5] * 100:  # rejection sampling is slow at n = 5
        sys = random_simplex(rng, n, entry_bound=4 if n < 5 else 3)
        pairs.append((sys, shuffled_image(rng, sys, entry_bound=6, trans_bound=5)))
    records = atlas_cache(4, 5)
    assert len(records) == 57
    pairs += [(rec.system(), shuffled_image(rng, rec.system(), entry_bound=6, trans_bound=5)) for rec in records]
    pairs += [(_INCOMPLETE_S, _INCOMPLETE_T), (_INCOMPLETE_T, _INCOMPLETE_S)]
    certificates = {}
    for sys_s, sys_t in pairs:
        prim_s, prim_t = primitivize(sys_s), primitivize(sys_t)
        meta_s, meta_t = validate_simplex(prim_s), validate_simplex(prim_t)
        assert _lattice_invariant(prim_s, meta_s) == _lattice_invariant(prim_t, meta_t)
        shard_s = _shard_key(normalize(sys_s, min(meta_s.max_det_bases))[0])
        assert shard_s == _shard_key(normalize(sys_t, min(meta_t.max_det_bases))[0])
        certificate = check_equivalence(sys_s, sys_t).certificate
        certificates[certificate] = certificates.get(certificate, 0) + 1
    assert set(certificates) == {None, "search-exhausted"}  # never invariant-mismatch


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_class_keys_lie_in_the_row_order_oracle(n):
    # The search keys some row orders of each maximal base and the oracle
    # keys them all, so every key the search reaches is the oracle's.
    rng = random.Random(2026 + n)
    for _ in range(15):
        prim = primitivize(random_simplex(rng, n, entry_bound=4 if n < 5 else 3))
        meta = validate_simplex(prim)
        assert class_keys(prim, meta) <= ref_row_order_keys(prim, meta)


def test_row_order_oracle_classes_are_the_lattice_invariant_groups(atlas_cache):
    # Records that the oracle puts in one class share the invariant that
    # verify groups by, and the invariant separates the oracle's classes:
    # 38 in the 39 records of the (4, 4) both atlas (ROADMAP item 1).
    records = atlas_cache(4, 4)
    keys = [key_tuple(rec.ns) for rec in records]
    invariants, oracles = [], []
    for rec in records:
        prim = rec.system()
        meta = validate_simplex(prim)
        invariants.append(_lattice_invariant(prim, meta))
        oracles.append(ref_row_order_keys(prim, meta))
    cls = [next(i for i in range(j + 1) if keys[j] in oracles[i]) for j in range(len(records))]
    for j, i in enumerate(cls):
        assert oracles[i] == oracles[j] and invariants[i] == invariants[j]
    assert len(set(cls)) == len(set(invariants)) == len(set(zip(cls, invariants))) == 38


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
        image = set(map(result.witness.image, validate_simplex(sys).points))
        assert image == set(validate_simplex(moved).points)


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
    # [1/5, 2/5] vs [2/5, 3/5]: same dimension, delta, |minor| multiset
    # {5, 5}, volume 5, facet pairs (5, 5) twice and edge length 1/5, but
    # the end points are {1, 2} / 5 against {2, 3} / 5 modulo 1 and x -> -x,
    # so only the full search can separate them.
    a = InequalitySystem(1, ((5,), (-5,)), (2, -1))
    b = InequalitySystem(1, ((5,), (-5,)), (3, -2))
    for s, t in ((a, b), (b, a)):
        result = check_equivalence(s, t)
        assert not result.equivalent
        assert result.certificate == "search-exhausted"


def test_check_equivalence_volume_mismatch():
    # [1/3, 2/3] vs [-1/3, 1/3]: same dimension, delta and |minor| multiset
    # {3, 3}, but |det [A | b]| is 3 against 6 (the second contains the
    # origin), so the lattice invariant separates them before the search.
    a = InequalitySystem(1, ((3,), (-3,)), (2, -1))
    b = InequalitySystem(1, ((3,), (-3,)), (1, 1))
    for s, t in ((a, b), (b, a)):
        result = check_equivalence(s, t)
        assert not result.equivalent
        assert result.certificate == "invariant-mismatch"


# Triangles that share delta 3, the |minor| multiset, volume 3 and the facet
# pairs (3, 1), (3, 3), (3, 3); only their edge lengths differ: 1/3 three
# times against 1, 1/3, 1/3.
_EDGE_ONLY_S = InequalitySystem(2, ((-3, -1), (0, -1), (3, 2)), (0, -2, 3))
_EDGE_ONLY_T = InequalitySystem(2, ((2, -1), (-3, 3), (1, -2)), (-3, 1, 3))


def test_check_equivalence_edge_lengths_mismatch():
    for s, t in ((_EDGE_ONLY_S, _EDGE_ONLY_T), (_EDGE_ONLY_T, _EDGE_ONLY_S)):
        inv_s, inv_t = (_lattice_invariant(p, validate_simplex(p)) for p in (primitivize(s), primitivize(t)))
        assert inv_s[:2] == inv_t[:2] == (3, ((3, 1), (3, 3), (3, 3)))
        assert inv_s[2] != inv_t[2]
        assert check_equivalence(s, t) == EquivalenceResult(False, certificate="invariant-mismatch")


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
    empties = candidate_records(3, 1, "empty")
    doubled = empties + empties
    assert len(dedup_families(doubled)) == len(dedup_families(empties)) == 2


def test_dedup_idempotent():
    once = dedup_families(candidate_records(3, 2))
    twice = dedup_families(once)
    assert [r.ns for r in once] == [r.ns for r in twice]


def test_dedup_survivor_is_least_key():
    empties = candidate_records(3, 2, "empty")
    survivors = dedup_families(empties)
    keys = [key_tuple(r.ns) for r in survivors]
    assert keys == sorted(keys)
    for rec in survivors:
        eq = equivalent_normalized_set(rec.system())
        present = [k for k in eq.records if k in set(key_tuple(r.ns) for r in empties)]
        assert key_tuple(rec.ns) == min(present)


def test_dedup_survivors_pairwise_inequivalent():
    for delta, n in ((3, 1), (3, 2), (4, 2)):
        survivors = dedup_families(candidate_records(delta, n))
        for i in range(len(survivors)):
            for j in range(i + 1, len(survivors)):
                result = check_equivalence(survivors[i].system(), survivors[j].system())
                assert not result.equivalent


def test_oracle_found_maps_are_always_found():
    # Completeness on fully random pairs: whenever the exact vertex-bijection
    # oracle finds a unimodular map, the decision procedure must report
    # equivalence too.
    rng = random.Random(616)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 2)
        a = random_simplex(rng, n, entry_bound=3)
        b = random_simplex(rng, n, entry_bound=3)
        if vertex_bijection_equivalent(a, b) is not None:
            found += 1
            assert check_equivalence(a, b).equivalent
    assert found >= 1


def test_vertex_bijection_oracle():
    # The exact oracle finds a map for every unimodular image, the map it
    # returns carries the vertices across, and it agrees with the decision
    # procedure on random pairs, some of them equivalent.
    rng = random.Random(1111)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_simplex(rng, n, entry_bound=4)
        b = apply_map(a, random_unimodular_map(rng, n, entry_bound=6, trans_bound=5))
        u, x0 = vertex_bijection_equivalent(a, b)
        image = set(map(AffineUnimodularMap(u, x0).image, validate_simplex(a).points))
        assert image == set(validate_simplex(b).points)
    found = 0
    for _ in range(60):
        n = rng.randint(1, 2)
        a, b = random_simplex(rng, n, entry_bound=3), random_simplex(rng, n, entry_bound=3)
        exact = vertex_bijection_equivalent(a, b) is not None
        assert exact == check_equivalence(a, b).equivalent
        found += exact
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

    counts = {"validate": 0, "search": 0}
    validate, search = equivalence.validate_simplex, equivalence._search

    def counting_validate(sys):
        counts["validate"] += 1
        return validate(sys)

    def counting_search(prim, meta):
        counts["search"] += 1
        return search(prim, meta)

    monkeypatch.setattr(equivalence, "validate_simplex", counting_validate)
    monkeypatch.setattr(equivalence, "_search", counting_search)
    rng = random.Random(74)
    for _ in range(30):
        n = rng.randint(2, 3)
        sys = random_simplex(rng, n, entry_bound=4)
        moved = shuffled_image(rng, sys, entry_bound=6, trans_bound=5)  # a row order that can miss the fast path
        before = counts["validate"]
        check_equivalence(sys, moved)
        assert counts["validate"] - before == 2
    assert counts["search"] > 0


def test_check_equivalence_builds_the_fast_path_form_only_on_a_hit(monkeypatch):
    # T's least-base form is built and validated first, on every path. S's
    # search then yields its least base's starting step before it builds any
    # form; if that key is T's (the fast path), only S's map is built, since
    # its form is T's, already validated. On a miss the same search goes on
    # and builds S's forms itself; after it only the witness's maps are
    # built: T's map, then S's stored map from the step the search stopped at.
    from deltasimplex import equivalence
    from deltasimplex.normal_form import KeyStep

    events = []
    yields = []  # per pair the search yielded: (pair, what it built before yielding it)
    form, key_map, search = KeyStep.form, KeyStep.map, equivalence._search

    def counting_form(step):
        events.append(("form", step.key))
        return form(step)

    def counting_map(step):
        events.append(("map", step.key))
        return key_map(step)

    def counting_search(prim, meta):
        events.append("search")
        pairs = search(prim, meta)
        while True:
            before = len(events)
            pair = next(pairs, None)
            built = events[before:]
            del events[before:]  # the starting forms the search builds itself
            if pair is None:
                return
            yields.append((pair, built))
            yield pair

    monkeypatch.setattr(KeyStep, "form", counting_form)
    monkeypatch.setattr(KeyStep, "map", counting_map)
    monkeypatch.setattr(equivalence, "_search", counting_search)
    rng = random.Random(76)
    outcomes = set()
    for _ in range(30):
        n = rng.randint(2, 3)
        sys = random_simplex(rng, n, entry_bound=4)
        moved = shuffled_image(rng, sys, entry_bound=6, trans_bound=5)
        events.clear()
        yields.clear()
        result = check_equivalence(sys, moved)  # the search is incomplete (see the module docstring)
        kind, key_t = events[0]
        assert kind == "form" and events[1] == "search"
        (step, start), built = yields[0]
        assert step is start and built == []  # the least base's starting step, before any form
        fast = step.key == key_t
        if fast:
            assert len(yields) == 1 and result.equivalent
            assert events[2:] == [("map", key_t), ("map", key_t)]  # T's map, then S's
        elif result.equivalent:
            (step, start), _ = yields[-1]
            assert step.key == key_t
            stored = [("map", start.key)] + ([] if step is start else [("map", step.key)])
            assert events[2:] == [("map", key_t)] + stored
        else:
            assert events[2:] == []
        outcomes.add((fast, result.equivalent))
    assert {(True, True), (False, True)} <= outcomes


def test_equivalent_set_matches_the_loop_that_maps_every_key():
    # The public set is built from the map-free search: same keys in the same
    # order, same forms and same maps as the loop that built every map itself.
    rng = random.Random(86)
    forms = deep = 0
    for n in [1, 2, 3, 4, 5] * 8:
        prim = primitivize(random_simplex(rng, n, entry_bound=5 if n < 5 else 3))
        meta = validate_simplex(prim)
        want = ref_equivalent_set(prim).records
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
        shuffled = shuffled_rows(rng, moved)
        other = random_simplex(rng, n, entry_bound=4 if n < 4 else 3)
        pairs += [(sys, moved), (sys, shuffled), (sys, other), (sys, sys)]
    # Records that share the full lattice invariant get past it to the search,
    # which misses: at (5, 3) they are distinct classes, or one class that
    # the incomplete search split (see the module docstring of equivalence).
    groups = {}
    for rec in dedup_families(candidate_records(5, 3)):
        prim = rec.system()
        groups.setdefault(_lattice_invariant(prim, validate_simplex(prim)), []).append(prim)
    for group in groups.values():
        pairs += [(a, b) for a, b in zip(group, group[1:])]
    return pairs


def _answer_from_the_full_set(sys_s, sys_t):
    """check_equivalence's answer with its search step read off S's whole equivalent set.

    The gates past the dimension check (both simplices share n here), the
    fast path and T's least-base map are those of `check_equivalence`;
    past them, T's key is looked up in
    `equivalent_normalized_set(S).records` and its stored map composed
    with T's map.
    """
    prim_s, prim_t = primitivize(sys_s), primitivize(sys_t)
    meta_s, meta_t = validate_simplex(prim_s), validate_simplex(prim_t)
    if meta_s.delta != meta_t.delta:
        return EquivalenceResult(False, certificate="delta-mismatch")
    if sorted(map(abs, meta_s.minors)) != sorted(map(abs, meta_t.minors)):
        return EquivalenceResult(False, certificate="minor-multiset-mismatch")
    step_t = key_step(prim_t, min(meta_t.max_det_bases), meta_t.delta)
    step_s = key_step(prim_s, min(meta_s.max_det_bases), meta_s.delta)
    if step_s.key == step_t.key:
        return EquivalenceResult(True, witness=compose(step_t.map(), inverse(step_s.map())))
    if _lattice_invariant(prim_s, meta_s) != _lattice_invariant(prim_t, meta_t):
        return EquivalenceResult(False, certificate="invariant-mismatch")
    records = equivalent_normalized_set(prim_s, meta_s).records
    if step_t.key not in records:
        return EquivalenceResult(False, certificate="search-exhausted")
    return EquivalenceResult(True, witness=compose(step_t.map(), records[step_t.key][1]))


def test_lazy_search_answers_what_the_full_set_stores(monkeypatch):
    # check_equivalence reads S's search only up to T's key. Each key is
    # yielded once, so it stops at the step the full set stores under that
    # key: answer, certificate and witness equal those read off the set, and
    # on a hit the search has yielded exactly the keys up to T's. The first
    # key is the fast path's: a hit there, or an invariant mismatch after
    # it, reads one key.
    from deltasimplex import equivalence

    yielded = []
    search = equivalence._search

    def counting_search(prim, meta):
        for pair in search(prim, meta):
            yielded.append(pair[0].key)
            yield pair

    monkeypatch.setattr(equivalence, "_search", counting_search)
    outcomes = []
    for sys_s, sys_t in _equivalence_queries(random.Random(87), 25):
        yielded.clear()
        got = check_equivalence(sys_s, sys_t)
        searched = list(yielded)  # the full set below runs the search too
        assert got == _answer_from_the_full_set(sys_s, sys_t)
        if searched:
            full = list(equivalent_normalized_set(sys_s).records)
            prim_t = primitivize(sys_t)
            meta_t = validate_simplex(prim_t)
            key_t = key_step(prim_t, min(meta_t.max_det_bases), meta_t.delta).key
            if got.equivalent:
                assert searched == full[: full.index(key_t) + 1]
            elif got.certificate == "invariant-mismatch":
                assert searched == full[:1]
            else:
                assert searched == full
        outcomes.append((len(searched), got.certificate))
    assert (1, None) in outcomes  # a fast-path positive
    assert any(count > 1 and cert is None for count, cert in outcomes)  # a positive past the fast path
    assert any(cert == "search-exhausted" for _, cert in outcomes)


def _invariant_cases(rng, atlas_cache):
    """Seeded pairs for the invariant's order.

    Constructed simplices that share a Hermite diagonal, records of the
    (5, 3) and (4, 5) atlases that share their |minor| multiset, row-shuffled
    images of both, and the triangles that only edge lengths separate.
    """
    from helpers import constructed_simplex

    pairs = [(_EDGE_ONLY_S, _EDGE_ONLY_T)]
    for n in (2, 3, 4, 5):
        for pivots in ((2,), (3,), (2, 2), (4,)):
            diag = list(pivots) + [1] * (n - len(pivots))
            systems = [constructed_simplex(rng, diag) for _ in range(6)]
            pairs += [(a, b) for a, b in itertools.combinations(systems, 2)]
            pairs += [(a, shuffled_image(rng, a, entry_bound=6, trans_bound=5)) for a in systems[:2]]
    for delta, n in ((5, 3), (4, 5)):
        groups = {}
        for rec in atlas_cache(delta, n):
            prim = rec.system()
            groups.setdefault(tuple(sorted(map(abs, validate_simplex(prim).minors))), []).append(prim)
        for group in groups.values():
            pairs += rng.sample(list(itertools.combinations(group, 2)), min(12, len(group) * (len(group) - 1) // 2))
            pairs += [(a, shuffled_image(rng, a, entry_bound=6, trans_bound=5)) for a in group[:2]]
    return pairs


def test_invariant_compares_edge_lengths_last(monkeypatch, atlas_cache):
    # check_equivalence compares the volume and facet pairs first and reads
    # the edge lengths only when those agree. Its answer, certificate and
    # witness must be those of the compare of the whole `_lattice_invariant`
    # (`_answer_from_the_full_set`), and the edge stage must run, once per
    # simplex, exactly on the pairs past the fast path whose volume and
    # facet pairs agree.
    from deltasimplex import equivalence
    from deltasimplex.equivalence import _volume_and_facets

    edge_calls = []
    edge_lengths = equivalence._edge_lengths

    def counting_edge_lengths(meta):
        edge_calls.append(meta)
        return edge_lengths(meta)

    monkeypatch.setattr(equivalence, "_edge_lengths", counting_edge_lengths)
    seen = {"skipped": 0, "edges-agree": 0, "edges-differ": 0}
    for sys_s, sys_t in _invariant_cases(random.Random(88), atlas_cache):
        edge_calls.clear()
        got = check_equivalence(sys_s, sys_t)
        ran = len(edge_calls)
        assert got == _answer_from_the_full_set(sys_s, sys_t)
        prim_s, prim_t = primitivize(sys_s), primitivize(sys_t)
        meta_s, meta_t = validate_simplex(prim_s), validate_simplex(prim_t)
        past_fast_path = (
            meta_s.delta == meta_t.delta
            and sorted(map(abs, meta_s.minors)) == sorted(map(abs, meta_t.minors))
            and key_step(prim_s, min(meta_s.max_det_bases), meta_s.delta).key
            != key_step(prim_t, min(meta_t.max_det_bases), meta_t.delta).key
        )
        if not past_fast_path:
            assert ran == 0
        elif _volume_and_facets(prim_s, meta_s) != _volume_and_facets(prim_t, meta_t):
            assert ran == 0 and got.certificate == "invariant-mismatch"
            seen["skipped"] += 1
        else:
            assert ran == 2
            seen["edges-differ" if got.certificate == "invariant-mismatch" else "edges-agree"] += 1
    assert min(seen.values()) > 0, seen


def test_dedup_builds_no_map(monkeypatch):
    # dedup_families reads the keys of each search only, so it constructs no
    # AffineUnimodularMap at all, through the public constructor or the
    # trusted one that compose and inverse use.
    built = {"count": 0}
    new, trusted = AffineUnimodularMap.__new__, AffineUnimodularMap._trusted.__func__

    def counting_new(cls, u, x0):
        built["count"] += 1
        return new(cls, u, x0)

    def counting_trusted(cls, u, x0):
        built["count"] += 1
        return trusted(cls, u, x0)

    monkeypatch.setattr(AffineUnimodularMap, "__new__", counting_new)
    monkeypatch.setattr(AffineUnimodularMap, "_trusted", classmethod(counting_trusted))
    records = candidate_records(4, 4)
    kept = dedup_families(records)
    assert built["count"] == 0
    assert len(records) > len(kept) > 0
    equivalent_normalized_set(records[0].system())
    assert built["count"] > 0


def test_dedup_validates_only_the_starting_forms(monkeypatch):
    # dedup_families reads keys only: the one form it validates per expanded
    # base is the starting form whose rows the search renormalizes, and no
    # form of a searched key is built. On (4, 5) both that is 121
    # validations, one per expanded base, where building every new key's
    # form took 283.
    from deltasimplex import equivalence, normal_form

    counts = {"validate": 0, "expanded": 0}
    validate, permutations = normal_form.validate_normalized, equivalence.reduced_permutations

    def counting_validate(ns):
        counts["validate"] += 1
        return validate(ns)

    def counting_permutations(h_mat):
        counts["expanded"] += 1
        return permutations(h_mat)

    records = candidate_records(4, 5)
    monkeypatch.setattr(normal_form, "validate_normalized", counting_validate)
    monkeypatch.setattr(equivalence, "reduced_permutations", counting_permutations)
    kept = dedup_families(records)
    assert counts["validate"] == counts["expanded"] > len(kept) > 0


def test_dedup_searches_each_record_as_it_is(monkeypatch):
    # The record check guarantees primitive rows, so dedup_families searches
    # each record's own system and calls no primitivize.
    from deltasimplex import equivalence

    records = candidate_records(4, 4)
    assert all(primitivize(rec.system()) == rec.system() for rec in records)

    def no_primitivize(sys):
        raise AssertionError("dedup_families primitivized a record")

    monkeypatch.setattr(equivalence, "primitivize", no_primitivize)
    kept = dedup_families(records)
    assert 0 < len(kept) < len(records)
