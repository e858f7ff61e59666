"""Unimodular equivalence: equivalent-set generation, decision, and dedup.

Two simplices are unimodular equivalent iff they share a normalized system,
so the decision reduces to set membership: generate the canonical
normalized systems of one simplex and look the other one up by key. The
generator enumerates only the C(n, k) * k! placements and orders of the
non-unit rows per maximal base, keeping identity-block rows in canonical
order. That search is known to be incomplete: reordering identity-block
rows can give a new form. For S = (rows (1,0,0), (0,1,0), (1,2,7),
(-1,-2,-5); right-hand side 0, 0, 2, -1) and T its rows in order
(1, 2, 0, 3), base orders (0,2,1) and (1,2,0) of S's normalized system give
B = (3,4) and B = (1,5), only the first is emitted, and `check_equivalence`
calls S and T inequivalent in both directions.

Each permutation is keyed before anything is built: the form and its
validation are made only for a key not yet in the set. Two rules skip key
steps whose key provably repeats one the same search has already stored
(`equivalent_normalized_set` gives the proofs): a maximal base whose
starting form an earlier base already gave is not expanded, and a row order
that differs from one already reached by swapping two adjacent unit-pivot
rows is not keyed. The identity row order of an expanded base reuses the
starting form's key and form, since it renormalizes that form onto itself.

One loop (`_search`) runs that search and builds no map: for each new key
it yields the validated form and the (U, x0) legs of its own key step and
of its base's starting form, from which the map to the form is built on
demand. Three callers read it. `equivalent_normalized_set` builds every
map. `check_equivalence` reads the keys and legs of the first simplex
through a bounded memo (`MEMO_CACHE_SIZE` entries, keyed by the primitive
system and its meta), so a repeated reference simplex is searched once,
and it builds the one map a hit needs. `dedup_families` reads the keys
alone and keeps nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .enumeration import CandidateRecord
from .errors import InvariantViolation
from .exact_linalg import MEMO_CACHE_SIZE, Mat
from .normal_form import key_step, key_tuple, leg_map, primitivize
from .simplex_model import (
    AffineUnimodularMap,
    InequalitySystem,
    SimplexMeta,
    compose,
    inverse,
    reduced_point,
    validate_simplex,
)


def reduced_permutations(h_mat: Mat):
    """Row permutations of a block Hermite matrix that can matter.

    Every placement of the k non-unit rows into n positions, crossed with
    every ordering of those k rows; identity-block rows fill the remaining
    positions in canonical order. Permutations that only move identity-block
    rows are never emitted, although some of them give new forms (see the
    module docstring), so the set of forms they reach can be incomplete.
    """
    n = len(h_mat)
    diag = [h_mat[i][i] for i in range(n)]
    s = sum(1 for d in diag if d == 1)
    if any(diag[i] != 1 for i in range(s)):
        raise InvariantViolation("matrix is not in gathered block form")
    k = n - s
    if k == 0:
        yield tuple(range(n))
        return
    t_rows = list(range(s, n))
    i_rows = list(range(s))
    for positions in itertools.combinations(range(n), k):
        for order in itertools.permutations(t_rows):
            perm: list[int | None] = [None] * n
            for pos, row in zip(positions, order):
                perm[pos] = row
            fill = iter(i_rows)
            for a in range(n):
                if perm[a] is None:
                    perm[a] = next(fill)
            yield tuple(perm)


def _unit_swap_twin(perm: tuple[int, ...], units: dict) -> tuple[int, ...] | None:
    """A reached row order that differs from `perm` by swapping two adjacent unit-pivot rows.

    `units` maps each row order reached so far to the rows that got unit
    pivots under it. If swapping positions i and i+1 of `perm` gives such an
    order q, and both swapped rows are unit rows of q, then `perm` has the
    same key as q (see `equivalent_normalized_set`), and q is returned.
    """
    for i in range(len(perm) - 1):
        twin = perm[:i] + (perm[i + 1], perm[i]) + perm[i + 2 :]
        unit_rows = units.get(twin)
        if unit_rows is not None and perm[i] in unit_rows and perm[i + 1] in unit_rows:
            return twin
    return None


@dataclass(frozen=True, eq=False)
class EquivalentSet:
    """Every canonical normalized system of one simplex's class.

    `records` maps the canonical key tuple to (normalized system, map); each
    stored map carries the source simplex onto the record's simplex.
    """

    records: dict


def equivalent_normalized_set(sys: InequalitySystem, meta: SimplexMeta | None = None) -> EquivalentSet:
    """Generate the canonical normalized systems the reduced permutations reach.

    For each base of maximal |det| the system is normalized once, and that
    normalized system is renormalized over every reduced row permutation of
    its block matrix, taken as an ordered base. Each permutation first gets
    only its key; the form is built and validated only when the key is new,
    since a repeat key names a form identical to one already built. The
    search itself is `_search`, which builds no map; this function builds
    the map of every form it yields.
    The set is not always the whole class: identity-block row orders that
    `reduced_permutations` skips can give further forms (see the module
    docstring).

    Two rules skip key steps whose key is already in the set, and a third
    reuses the starting form's key step; none skips a check, and the set,
    its order and its maps are those of the full loop.

    1. Each starting form is expanded once. The keys a base reaches, and
       their order, depend on its starting form alone, so a base whose
       starting key an earlier base already gave adds nothing and is skipped.
    2. Adjacent unit-pivot swap. Let the ordered base rows A have Hermite
       form H, A U = H. If H_ii = H_(i+1)(i+1) = 1, then rows i and i+1 of
       H are e_i and e_(i+1) (their off-diagonal entries lie in [0, 1)), and
       rows below them have entries in [0, H_rr) in both columns. With P the
       swap of coordinates i and i+1, (P A)(U P) = P H P, which is again
       lower triangular with the same diagonal and reduced rows, so by
       uniqueness it is the Hermite form of P A. The omitted row's
       coordinates are swapped the same way, so the two unit coordinates
       carry the same (B column, c entry) pairs into the tie-break sort, and
       the key is the same. (If the two pairs tie, the coordinates have
       equal columns of [H; c], and both unit rows reduce to right-hand
       side 0, so their order does not show in the form.) So a permutation
       is not keyed when swapping two adjacent positions gives a permutation
       already reached in this base's loop under which both swapped rows got
       unit pivots; it inherits that permutation's unit rows, so chains of
       swaps prune too.
    3. The identity order renormalizes the starting form onto itself. Its
       rows are already in Hermite form, so the elimination gives U = I
       (`hnf` leaves a Hermite matrix as it is); its unit coordinates
       already satisfy the tie-break, so the stable sort keeps them in
       place (sigma = id); and its right-hand side is already reduced, so
       x0 = 0. Its key is the starting key, its form the starting form,
       its map the identity, and its unit rows are rows 0..s-1. So when
       the loop reaches the identity it yields the starting form, whose
       stored map is inverse(m0), if the key is new, at the same point in
       the loop, and makes no key step.

    A caller that already holds `meta = validate_simplex(sys)` for a
    primitive `sys` passes it, and the system is used as given.
    """
    if meta is None:
        prim = primitivize(sys)
        meta = validate_simplex(prim)
    else:
        prim = sys
    return EquivalentSet(records={key: (ns, _stored_map(legs)) for key, ns, legs in _search(prim, meta)})


def _search(prim: InequalitySystem, meta: SimplexMeta):
    """The equivalent-set search: yield (key, form, legs) for each new key, in set order.

    `prim` is primitive with `meta = validate_simplex(prim)`. Each form is
    built and validated once; no map is built. `legs` is (leg0, leg), the
    (U, x0) of the key step of the base's starting form and of the form's
    own row order, with leg None for the starting form itself (rule 3 of
    `equivalent_normalized_set`). `_stored_map(legs)` is the map from the
    source to the form.
    """
    seen: set = set()
    starts: set = set()
    identity = tuple(range(prim.n))
    for base in meta.max_det_bases:
        start = key_step(prim, base, meta.delta)
        if start.key in starts:
            continue  # an earlier base with this starting form reached every key it can
        starts.add(start.key)
        ns0 = start.form()
        sys0 = ns0.system()
        units: dict = {}  # permutation reached -> the rows of sys0 that got unit pivots
        for perm in reduced_permutations(ns0.H):
            twin = _unit_swap_twin(perm, units)
            if twin is not None:
                units[perm] = units[twin]  # same key as twin's, already seen
                continue
            if perm == identity:  # renormalizes ns0 onto itself (rule 3)
                units[perm] = frozenset(range(ns0.s))
                if start.key not in seen:
                    seen.add(start.key)
                    yield start.key, ns0, (start.leg, None)
                continue
            step = key_step(sys0, perm, meta.delta)
            units[perm] = frozenset(step.row_src[: step.s])
            if step.key not in seen:
                seen.add(step.key)
                yield step.key, step.form(), (start.leg, step.leg)


def _stored_map(legs) -> AffineUnimodularMap:
    """The map from the source simplex to a searched form, from its `_search` legs."""
    leg0, leg = legs
    m0 = leg_map(leg0)  # starting form -> source
    if leg is None:
        return inverse(m0)
    # m0 and m1 both point record -> source; store source -> record.
    return inverse(compose(m0, leg_map(leg)))


@lru_cache(maxsize=MEMO_CACHE_SIZE)
def _search_legs(prim: InequalitySystem, meta: SimplexMeta) -> MappingProxyType:
    """Memo of `_search` for `check_equivalence`: a read-only canonical key -> legs mapping."""
    return MappingProxyType({key: legs for key, _, legs in _search(prim, meta)})


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    witness: AffineUnimodularMap | None = None
    certificate: str | None = None


def check_equivalence(sys_s: InequalitySystem, sys_t: InequalitySystem) -> EquivalenceResult:
    """Decide unimodular equivalence of two simplices, with a verified witness.

    Cheap invariants (dimension, delta, the multiset of |maximal minors|)
    reject most non-equivalent pairs outright. Otherwise the second simplex
    is normalized once and looked up in the first simplex's equivalent set,
    which is searched once per distinct first simplex while it stays in the
    memo (`_search_legs`). On a hit the one witness map is built; it
    carries the first simplex onto the second and is verified on the vertex
    sets before being returned. The vertex sets are compared as sets of
    reduced integer points (`SimplexMeta.points`), with no `Fraction`
    arithmetic.
    """
    prim_s = primitivize(sys_s)
    prim_t = primitivize(sys_t)
    meta_s = validate_simplex(prim_s)
    meta_t = validate_simplex(prim_t)
    if prim_s.n != prim_t.n:
        return EquivalenceResult(False, certificate="dimension-mismatch")
    if meta_s.delta != meta_t.delta:
        return EquivalenceResult(False, certificate="delta-mismatch")
    if sorted(map(abs, meta_s.minors)) != sorted(map(abs, meta_t.minors)):
        return EquivalenceResult(False, certificate="minor-multiset-mismatch")

    # T's form is built and validated on every path; its map, the last leg
    # of the witness (record -> T), only on a hit.
    step_t = key_step(prim_t, min(meta_t.max_det_bases), meta_t.delta)
    step_t.form()

    # Fast path: if the least-base normalizations already coincide, the two
    # direct maps compose to a witness (the identity when S and T are equal).
    # S's form is then T's, field for field (the key is injective), and
    # already validated, so only its map is built. On a miss the search
    # below builds and validates S's starting form itself, once per
    # distinct S while it stays in the memo.
    step_s = key_step(prim_s, min(meta_s.max_det_bases), meta_s.delta)
    if step_s.key == step_t.key:
        stored_s = inverse(step_s.map())
    else:
        legs = _search_legs(prim_s, meta_s).get(step_t.key)
        if legs is None:
            return EquivalenceResult(False, certificate="search-exhausted")
        stored_s = _stored_map(legs)  # S -> record
    witness = compose(step_t.map(), stored_s)  # S -> record -> T
    # The witness takes the point nums / d to (U nums + d x0) / d.
    u, x0 = witness.U, witness.x0
    image = frozenset(
        reduced_point(tuple(sum(a * x for a, x in zip(row, nums)) + d * t for row, t in zip(u, x0)), d)
        for nums, d in meta_s.points
    )
    if image != frozenset(meta_t.points):
        raise InvariantViolation("equivalence witness failed vertex-set verification")
    return EquivalenceResult(True, witness=witness)


def dedup_families(records: list[CandidateRecord]) -> list[CandidateRecord]:
    """Collapse a candidate stream to one representative per equivalence class.

    Records are indexed by canonical key; walking the keys in ascending
    order, each still-present record runs the equivalent-set search and
    every other member found in the index is removed. Only the keys are
    read: no map is built, and nothing is memoized, so memory stays flat
    however long the stream. The survivor of each class is therefore the
    record with the least canonical key present.
    """
    index: dict = {}
    for rec in records:
        index.setdefault(key_tuple(rec.ns), rec)
    for key in sorted(index):
        if key not in index:
            continue
        prim = primitivize(index[key].system())
        found = {other for other, _, _ in _search(prim, validate_simplex(prim))}
        if key not in found:
            raise InvariantViolation("record's own canonical form missing from its equivalent set")
        for other in found:
            if other != key and other in index:
                del index[other]
    return [index[key] for key in sorted(index)]
