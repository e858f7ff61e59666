"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either derived by an independent oracle in
this file/helpers or pinned from exhaustive small-case analysis.
"""

import itertools
import random
import time
from fractions import Fraction

from deltasimplex import (
    apply_map,
    check_equivalence,
    corner_minimum,
    count_integer_points_bruteforce,
    enumerate_c,
    eq1_bound,
    equivalent_normalized_set,
    identity,
    key_tuple,
    primitivize,
    reduce_rhs,
    validate_simplex,
)
from deltasimplex.atlas_cli import main
from deltasimplex import InequalitySystem, NotASimplexError, InvalidSystemError

from helpers import (
    RadiusError,
    corner_minimum_bruteforce,
    gauss_inverse,
    opposite_vertex,
    random_hnf,
    random_simplex,
    random_unimodular_map,
    vertex_bijection_equivalent,
)


def _pass(num: int, message: str) -> None:
    print(f"PASS criterion {num}: {message}")


def test_criterion_01_delta_one_all_dims(atlas_cache):
    for n in range(1, 7):
        t0 = time.perf_counter()
        records = atlas_cache(1, n)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"
        assert [r.family for r in records] == ["lattice_empty"]
        ns = records[0].ns
        assert ns.H == identity(n)
        assert ns.h == (0,) * n
        assert ns.c == (-1,) * n
        assert ns.c0 == 1
    _pass(1, "delta=1, n=1..6: exactly one lattice class (the standard simplex), under 1s each")


def test_criterion_02_delta_two_small_dims(atlas_cache):
    for n in (1, 2):
        assert atlas_cache(2, n) == []
    _pass(2, "delta=2, n=1,2: no classes in either family")


def _segment_classifier_keys():
    """Classify all 1-d systems with entries in [-3,3] that are empty with delta 3."""
    keys = set()
    for a1, a2, b1, b2 in itertools.product(range(-3, 4), repeat=4):
        try:
            sys = InequalitySystem(1, ((a1,), (a2,)), (b1, b2))
            prim = primitivize(sys)
            meta = validate_simplex(prim)
        except (NotASimplexError, InvalidSystemError):
            continue
        if meta.delta != 3:
            continue
        if count_integer_points_bruteforce(prim) != 0:
            continue
        keys.add(min(equivalent_normalized_set(prim).records))
    return keys


def test_criterion_03_delta_three_segments(atlas_cache):
    records = atlas_cache(3, 1)
    assert [r.family for r in records] == ["empty", "empty"]
    atlas_keys = {key_tuple(r.ns) for r in records}
    # cross-check against the brute-force classifier over all small segment systems
    assert _segment_classifier_keys() == atlas_keys
    # the representatives are the classes of [1/3, 2/3] and [1/3, 1/2]
    third_two_thirds = InequalitySystem(1, ((3,), (-3,)), (2, -1))
    third_half = InequalitySystem(1, ((2,), (-3,)), (1, -1))
    matched = set()
    for probe in (third_two_thirds, third_half):
        hits = [r for r in records if check_equivalence(probe, r.system()).equivalent]
        assert len(hits) == 1
        matched.add(key_tuple(hits[0].ns))
    assert matched == atlas_keys
    _pass(3, "delta=3, n=1: exactly the classes of [1/3,2/3] and [1/3,1/2], matching the classifier")


def test_criterion_04_class_count_bound(atlas_cache):
    for delta in range(1, 5):
        for n in range(1, 7):
            records = atlas_cache(delta, n)
            empty_count = sum(1 for r in records if r.family == "empty")
            bound = eq1_bound(delta, n)
            assert empty_count <= bound, f"delta={delta} n={n}: {empty_count} > {bound}"
    _pass(4, "empty-class counts within the closed-form bound for delta<=4, n<=6")


def test_criterion_05_emptiness_ground_truth(atlas_cache):
    checked = 0
    for delta in range(1, 5):
        for n in range(1, 5):
            for rec in atlas_cache(delta, n):
                expected = 0 if rec.family == "empty" else n + 1
                assert count_integer_points_bruteforce(rec.system()) == expected
                checked += 1
    assert checked > 0
    _pass(5, f"point-count oracle confirms family emptiness on all {checked} records (n<=4)")


def _oracle_value(h_mat, h, c, expected):
    n = len(h_mat)
    delta = 1
    for i in range(n):
        delta *= h_mat[i][i]
    radius = 2
    cap = delta * n + 2
    sol = None
    while True:
        try:
            sol = corner_minimum_bruteforce(h_mat, h, c, radius)
        except RadiusError:
            sol = None
        if sol is not None and sol.f_star == expected:
            return sol.f_star
        if radius > cap:
            return sol.f_star if sol is not None else None
        radius *= 2


def test_criterion_06_corner_oracle_equivalence():
    rng = random.Random(20240)
    instances = 0
    while instances < 500:
        n = rng.randint(1, 4)
        delta_cap = 20 if n <= 3 else 10
        h_mat = random_hnf(rng, n, delta_cap)
        h = tuple(rng.randrange(h_mat[i][i]) for i in range(n))
        c = rng.choice(enumerate_c(h_mat))
        sol = corner_minimum(h_mat, h, c)  # divisibility asserted internally
        assert _oracle_value(h_mat, h, c, sol.f_star) == sol.f_star
        instances += 1
    _pass(6, f"group solver equals the box-scan oracle on {instances} instances, divisibility held")


def test_criterion_07_paral_enumeration():
    rng = random.Random(777)
    cases = []
    for _ in range(110):
        n = rng.randint(1, 2)
        cases.append(random_hnf(rng, n, 30))
    for _ in range(90):
        cases.append(random_hnf(rng, 3, 8))
    for _ in range(20):
        cases.append(random_hnf(rng, 4, 4))
    assert len(cases) >= 200
    for h_mat in cases:
        n = len(h_mat)
        delta = 1
        for i in range(n):
            delta *= h_mat[i][i]
        got = enumerate_c(h_mat)
        assert len(got) == len(set(got)) == delta
        # independent membership test: integer-scaled Gauss inverse of H^T
        inv_t = gauss_inverse([[h_mat[j][i] for j in range(n)] for i in range(n)])
        scaled = [[int(x * delta) for x in row] for row in inv_t]
        assert all(
            Fraction(int(x * delta)) == x * delta for row in inv_t for x in row
        )

        def member(c):
            for i in range(n):
                wi = -sum(scaled[i][j] * c[j] for j in range(n))
                if not 0 < wi <= delta:
                    return False
            return True

        assert all(member(c) for c in got)
        # c = -H^T t with t in (0, 1]^n, so |c_j| <= sum_i |H_ij|: this box
        # contains all of paral(-H^T), and the scan misses none of it.
        bounds = [sum(abs(h_mat[i][j]) for i in range(n)) for j in range(n)]
        scan = {
            c
            for c in itertools.product(*(range(-b, b + 1) for b in bounds))
            if member(c)
        }
        assert scan == set(got)
    _pass(7, f"parallelepiped enumeration matches the full scan on {len(cases)} matrices")


def test_criterion_08_equivalence_round_trip(atlas_cache):
    rng = random.Random(4242)
    for trial in range(200):
        n = rng.randint(1, 5)
        sys = random_simplex(rng, n, entry_bound=6)
        m = random_unimodular_map(rng, n, entry_bound=10, trans_bound=10)
        moved = apply_map(sys, m)
        result = check_equivalence(sys, moved)
        assert result.equivalent, f"trial {trial} failed"
        image = set(map(result.witness.image, validate_simplex(sys).points))
        assert image == set(validate_simplex(moved).points)
    pool = []
    for delta in range(1, 5):
        for n in range(1, 5):
            pool.extend(atlas_cache(delta, n))
    pairs = list(itertools.combinations(range(len(pool)), 2))[:100]
    assert len(pairs) == 100
    for i, j in pairs:
        assert not check_equivalence(pool[i].system(), pool[j].system()).equivalent
    _pass(8, "200 mapped pairs equivalent with verified witnesses; 100 cross-pairs inequivalent")


def test_criterion_09_brute_force_oracle_agreement(atlas_cache):
    for n in (1, 2):
        records = []
        for delta in (1, 2, 3):
            records.extend(atlas_cache(delta, n))
        assert records
        for i in range(len(records)):
            for j in range(len(records)):
                a, b = records[i].system(), records[j].system()
                ours = check_equivalence(a, b).equivalent
                oracle = vertex_bijection_equivalent(a, b) is not None
                assert ours == oracle == (i == j)
    _pass(9, "equivalence decisions agree with the exact vertex-bijection oracle on all atlas pairs")


def test_criterion_10_rhs_reduction_uniqueness():
    rng = random.Random(1000)
    for _ in range(500):
        n = rng.randint(1, 4)
        h_mat = random_hnf(rng, n, 16)
        b = tuple(rng.randint(-40, 40) for _ in range(n))
        h, x0 = reduce_rhs(h_mat, b)
        assert all(0 <= h[i] < h_mat[i][i] for i in range(n))
        for j in range(n):
            for eps in (-1, 1):
                alt = tuple(x0[i] + (eps if i == j else 0) for i in range(n))
                h_alt = tuple(b[i] - sum(h_mat[i][r] * alt[r] for r in range(n)) for i in range(n))
                assert any(not 0 <= h_alt[i] < h_mat[i][i] for i in range(n))
    _pass(10, "translation uniqueness held on 500 random reductions")


def test_criterion_11_facet_distance_bound(atlas_cache):
    checked = 0
    for delta in range(1, 5):
        for n in range(1, 7):
            for rec in atlas_cache(delta, n):
                v = opposite_vertex(rec.ns)
                gap = abs(rec.ns.c0 - sum(ci * vi for ci, vi in zip(rec.ns.c, v)))
                assert gap <= delta
                checked += 1
    _pass(11, f"|c0 - c^T v| <= delta on all {checked} atlas records")


def test_criterion_12_determinism_and_parallel(tmp_path):
    files = [tmp_path / name for name in ("r1.jsonl", "r2.jsonl", "r8.jsonl")]
    assert main(["enumerate", "--delta", "3", "--dim", "5", "--jobs", "1", "--out", str(files[0])]) == 0
    assert main(["enumerate", "--delta", "3", "--dim", "5", "--jobs", "1", "--out", str(files[1])]) == 0
    assert main(["enumerate", "--delta", "3", "--dim", "5", "--jobs", "8", "--out", str(files[2])]) == 0
    blobs = [f.read_bytes() for f in files]
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0]
    _pass(12, "repeated runs and --jobs 1 vs 8 produce byte-identical atlases for (3, 5)")


def test_criterion_13_scale(tmp_path):
    t0 = time.perf_counter()
    assert main(["enumerate", "--delta", "3", "--dim", "8", "--family", "both", "--out", str(tmp_path / "a.jsonl")]) == 0
    t38 = time.perf_counter() - t0
    assert t38 < 300, f"delta=3 dim=8 took {t38:.1f}s"
    t0 = time.perf_counter()
    assert main(["enumerate", "--delta", "4", "--dim", "6", "--family", "both", "--out", str(tmp_path / "b.jsonl")]) == 0
    t46 = time.perf_counter() - t0
    assert t46 < 900, f"delta=4 dim=6 took {t46:.1f}s"
    _pass(13, f"scale runs finished in {t38:.1f}s (limit 300s) and {t46:.1f}s (limit 900s)")
