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

Each permutation gets its key step before anything is built. Two rules
skip key steps whose key provably repeats one the same search has already
stored (`equivalent_normalized_set` gives the proofs): a maximal base whose
starting form an earlier base already gave is not expanded, and a row order
that differs from one already reached by swapping two adjacent unit-pivot
rows gets no key step. The identity row order of an expanded base gets
none either: it renormalizes the starting form onto itself, and the
starting form's own key step comes first.

One generator (`_search`) runs that search, over the maximal bases least
first. It builds and validates each expanded base's starting form and
nothing else. It yields the base's starting `KeyStep` first, if its key is
new, before that form is built; per other new key it yields the `KeyStep`
and its base's starting `KeyStep`, from which the map to the form is
built. Each caller builds only what it reads. `equivalent_normalized_set`
builds every form and map. `check_equivalence` reads the first simplex's
search only up to the second simplex's key and builds the one map a hit
needs; the search's first step, the least base's starting form, is its
fast path.

One function computes the exact class invariant: `_shard_key` (volume,
facet pairs and edge lattice lengths), read off a form's (H, h, c, c0) and
the adjugate of its H without a validation. Past the fast path,
`check_equivalence` compares it on the two least-base key steps, which
rejects most inequivalent pairs that share the |minor| multiset without a
search. `dedup_families` walks each shard of that key on its own, so a
search reaches no other shard, and a shard holds one class or a few that
share the invariant; it reads the keys, runs the one record check
(`enumeration.record_problem`) on each record it walks, whose meta the
search then reuses, takes the search's first pair as the record's own key,
and stops the search once no other key of the shard is left to remove.
`atlas.verify_atlas` groups an atlas's records by the same key and searches
only within a group.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .enumeration import record_problem
from .errors import InvariantViolation
from .exact_linalg import MEMO_CACHE_SIZE, Mat, Vec, _adjugate_cached
from .normal_form import KeyStep, NormalizedSystem, canonical_key, key_step, key_tuple, paral_weights, primitivize
from .simplex_model import (
    AffineUnimodularMap,
    InequalitySystem,
    SimplexMeta,
    compose,
    inverse,
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


class EquivalentSet(NamedTuple):
    """Every canonical normalized system of one simplex's class.

    `records` maps the canonical key tuple to (normalized system, map); each
    stored map carries the source simplex onto the record's simplex.
    """

    records: dict


def equivalent_normalized_set(sys: InequalitySystem, meta: SimplexMeta | None = None) -> EquivalentSet:
    """Generate the canonical normalized systems the reduced permutations reach.

    For each base of maximal |det|, least first, the system is normalized
    once, and that normalized system is renormalized over every reduced row
    permutation of its block matrix, taken as an ordered base. Each
    permutation first gets only its key, since a repeat key names a form
    already stored. The search itself is `_search`, which builds no form of
    a key and no map; this function builds the form and the map of every
    key it yields.
    The set is not always the whole class: identity-block row orders that
    `reduced_permutations` skips can give further forms (see the module
    docstring).

    Two rules skip key steps whose key is already in the set, and a third
    skips the identity order, whose form is the starting form; none skips
    a check, and the set, its order and its maps are those of the full
    loop that stores each base's starting form first.

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
       gets no key step when swapping two adjacent positions gives a
       permutation already reached in this base's loop under which both
       swapped rows got unit pivots; it inherits that permutation's unit
       rows, so chains of swaps prune too.
    3. The identity order renormalizes the starting form onto itself. Its
       rows are already in Hermite form, so the elimination gives U = I
       (`hnf` leaves a Hermite matrix as it is); its unit coordinates
       already satisfy the tie-break, so the stable sort keeps them in
       place (sigma = id); and its right-hand side is already reduced, so
       x0 = 0. Its key is the starting key, its form the starting form,
       its map the identity, and its unit rows are rows 0..s-1. The base
       yields its starting key step, whose stored map is inverse(m0),
       before its loop if the key is new, so the loop enters the identity
       as reached with unit rows 0..s-1 and makes no key step for it.
       (No other reduced permutation is a rule-2 twin of the identity: a
       twin would swap two identity-block rows, whose canonical order
       `reduced_permutations` keeps.)

    A caller that already holds `meta = validate_simplex(sys)` for a
    primitive `sys` passes it, and the system is used as given.
    """
    if meta is None:
        sys = primitivize(sys)
        meta = validate_simplex(sys)
    return EquivalentSet({step.key: (step.form(), _stored_map(step, start)) for step, start in _search(sys, meta)})


def _search(prim: InequalitySystem, meta: SimplexMeta):
    """The equivalent-set search: yield (step, start) for each new key, in set order.

    `prim` is primitive with `meta = validate_simplex(prim)`. The maximal
    bases are walked least first, so the first pair is the least base's
    starting step. Only each expanded base's starting form is built (and
    validated), after the base has yielded `(start, start)` if its key is
    new; so a caller that stops at the first pair builds no form. `start`
    is the base's starting key step, and `step is start` for the starting
    form itself (rule 3 of `equivalent_normalized_set`). `step.form()` is
    the validated form and `_stored_map(step, start)` the map from the
    source to it. A generator: a caller that stops early skips the rest.
    """
    seen: set = set()
    starts: set = set()
    for base in sorted(meta.max_det_bases):
        start = key_step(prim, base, meta.delta)
        if start.key in starts:
            continue  # an earlier base with this starting form reached every key it can
        starts.add(start.key)
        if start.key not in seen:
            seen.add(start.key)
            yield start, start
        ns0 = start.form()
        sys0 = ns0.system()
        # permutation reached -> the rows of sys0 that got unit pivots; the
        # identity, yielded above as the starting form (rule 3), is reached
        units = {tuple(range(prim.n)): frozenset(range(ns0.s))}
        for perm in reduced_permutations(ns0.H):
            if perm in units:
                continue  # the identity
            twin = _unit_swap_twin(perm, units)
            if twin is not None:
                units[perm] = units[twin]  # same key as twin's, already seen
                continue
            step = key_step(sys0, perm, meta.delta)
            units[perm] = frozenset(step.row_src[: step.s])
            if step.key not in seen:
                seen.add(step.key)
                yield step, start


def _stored_map(step: KeyStep, start: KeyStep) -> AffineUnimodularMap:
    """The map from the source simplex to a searched form, from its `_search` pair."""
    m0 = start.map()  # starting form -> source
    # m0 and step's map both point record -> source; store source -> record.
    return inverse(m0 if step is start else compose(m0, step.map()))


def class_keys(prim: InequalitySystem, meta: SimplexMeta) -> set:
    """The canonical key tuples `_search` reaches from primitive `prim`, with `meta = validate_simplex(prim)`."""
    return {step.key for step, _ in _search(prim, meta)}


def _shard_key(ns: NormalizedSystem | KeyStep) -> tuple | None:
    """The exact class invariant of a form: (volume, facet pairs, edge lengths), None for no simplex.

    `ns` is a `NormalizedSystem` or an unbuilt `KeyStep`; only H, h, c and
    c0 are read, as the rows [H | h] and [c | c0]. Equivalent simplices,
    and so all forms of one class, share the key. A map x -> U x + x0 turns
    the primitive rows [A | b] into [A | b] [[U, -x0], [0, 1]], a factor of
    determinant +-1, which keeps the volume |det [A | b]|; U keeps the
    |minors| and the content of an integer vector, so each edge's lattice
    length (the translation cancels); the integral map keeps a point's
    reduced denominator, so the facet pairs (|minor_i|, denominator of
    vertex i); and the sorted tuples forget the row order. The key fixes n
    (one facet pair per row) and delta (the largest |minor|).

    With D = det H, a_i column i of adj(H), w_i = -a_i . c (the cone
    weights, `paral_weights`), V = D c0 + w . h and Ah = adj(H) h:
    - the volume |det [[H, h], [c, c0]]| is |D c0 - c adj(H) h| = |V|;
    - the |maximal minors| are D and the |w_i|;
    - vertex n solves H x = h, so it is Ah / D, and vertex i < n solves
      H x = h + t e_i with c x = c0, so it is (w_i Ah - V a_i) / (D w_i);
      the facet pairs take the reduced denominators of these;
    - the edge from vertex i to vertex n is -V a_i / (D w_i), and that to
      vertex j < n is V (w_i a_j - w_j a_i) / (D w_i w_j), of lattice
      lengths |V| content(a_i) / |D w_i| and
      |V| content(w_j a_i - w_i a_j) / |D w_i w_j|.
    All but V, Ah and the vertex denominators depend on (H, c) alone and
    come from the memo `_cone_edges`, shared by every candidate of one
    cone, so a candidate costs w . h, adj(H) h, n + 1 gcds of n + 1
    entries and one gcd per edge. A candidate with D, V or some w_i equal
    to 0 is no simplex; it gets the key None, a shard apart, whose walk's
    record check reports it. The adjugate of H is a memo hit in the
    process that generated the block, which is this one at `jobs` = 1, and
    a miss per distinct H for blocks generated in a forked child.
    """
    d, adj, w, columns, edges = _cone_edges(ns.H, ns.c)
    h = ns.h
    v = d * ns.c0 + sum(map(mul, w, h))
    if not (d and v and all(w)):
        return None
    ah = [sum(map(mul, row, h)) for row in adj]
    facets = [(abs(d), abs(d) // math.gcd(d, *ah))]
    for a_i, w_i, den in columns:
        facets.append((abs(w_i), den // math.gcd(den, *[w_i * x - v * a for x, a in zip(ah, a_i)])))
    volume = abs(v)
    # Each edge's content / den is reduced, so gcd(volume * content, den) = gcd(volume, den).
    lengths = [(volume // (g := math.gcd(volume, den)) * content, den // g) for content, den in edges]
    return volume, tuple(sorted(facets)), tuple(sorted(lengths))


@lru_cache(maxsize=MEMO_CACHE_SIZE)
def _cone_edges(h_mat: Mat, c: Vec) -> tuple:
    """(D, adj(H), w, columns, edges) of `_shard_key` for one cone (H, c); a memo, bounded like the kernel memos.

    `columns` holds (a_i, w_i, |D w_i|) per column of adj(H). `edges`
    holds, per edge of the simplex, its lattice length divided by |V| as a
    reduced (numerator, denominator): content(a_i) / |D w_i| for the edges
    at vertex n, then content(w_j a_i - w_i a_j) / |D w_i w_j| for
    i < j < n. Both are empty when D or some w_i is 0. H is a checked
    matrix, so it goes to `_adjugate_cached` as it is.
    """
    d, adj = _adjugate_cached(h_mat)
    w = paral_weights(h_mat, c)
    if not (d and all(w)):
        return d, adj, w, (), ()  # no simplex: `_shard_key` gives None
    columns = tuple((a_i, w_i, abs(d * w_i)) for a_i, w_i in zip(zip(*adj), w))
    edges = [(math.gcd(*a_i), den) for a_i, _, den in columns]
    edges += [
        (math.gcd(*[w_j * x - w_i * y for x, y in zip(a_i, a_j)]), abs(d * w_i * w_j))
        for (a_i, w_i, _), (a_j, w_j, _) in itertools.combinations(columns, 2)
    ]
    return d, adj, w, columns, tuple((content // (g := math.gcd(content, den)), den // g) for content, den in edges)


class EquivalenceResult(NamedTuple):
    equivalent: bool
    witness: AffineUnimodularMap | None = None
    certificate: str | None = None


def check_equivalence(sys_s: InequalitySystem, sys_t: InequalitySystem) -> EquivalenceResult:
    """Decide unimodular equivalence of two simplices, with a verified witness.

    The checks, in order, each with its certificate on a rejection:

    1. Dimension, delta and the multiset of |maximal minors|, all read off
       the two validations (`dimension-mismatch`, `delta-mismatch`,
       `minor-multiset-mismatch`).
    2. The second simplex is normalized once at its least maximal base; its
       form is built and validated on every path past step 1. The first
       simplex's equivalent-set search opens, and its first pair is the
       first simplex's least-base starting step, yielded before any form is
       built. If its key is the second simplex's, the pair is equivalent
       (the fast path: one key step and two maps of the first simplex).
    3. Otherwise the class invariants `_shard_key` of the two least-base
       key steps are compared (`invariant-mismatch`), against a full
       search. Each key step is a form of its validated simplex, so neither
       key is None. It is placed after step 2, so a fast-path hit pays
       nothing for it, and step 2 fills the Hermite memo entry that a later
       `normalize` of the second simplex reads.
    4. Otherwise the same search goes on until it yields the second
       simplex's key (`search-exhausted` if it never does). The search
       yields each key once, so the step it stops at is the one
       `equivalent_normalized_set` stores under that key, and the witness
       is the same. Nothing is kept between calls.

    On a hit, on either path, the one witness map is built: the second
    simplex's map composed with `_stored_map` of the pair the search
    stopped at. It carries the first simplex onto the second and is
    verified on the vertex sets before being returned: each point of
    `SimplexMeta.points` is mapped by `AffineUnimodularMap.image`, and the
    sets of reduced integer points are compared.
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

    # T's form is built and validated on every path; its map, the last factor
    # of the witness (record -> T), only on a hit.
    step_t = key_step(prim_t, min(meta_t.max_det_bases), meta_t.delta)
    step_t.form()

    # Fast path: S's search yields its least base's starting step first, before
    # it builds any form. If that key is T's, S's form is T's, field for field
    # (the key is injective), and already validated, so only S's map is built
    # (the witness is the identity when S and T are equal). On a miss the two
    # class invariants are compared, and only if they agree does the same
    # search go on, building and validating S's starting forms itself.
    pairs = _search(prim_s, meta_s)
    found = next(pairs)
    if found[0].key != step_t.key:
        if _shard_key(found[0]) != _shard_key(step_t):
            return EquivalenceResult(False, certificate="invariant-mismatch")
        found = next((pair for pair in pairs if pair[0].key == step_t.key), None)
        if found is None:
            return EquivalenceResult(False, certificate="search-exhausted")
    witness = compose(step_t.map(), _stored_map(*found))  # S -> record -> T
    if frozenset(map(witness.image, meta_s.points)) != frozenset(meta_t.points):
        raise InvariantViolation("equivalence witness failed vertex-set verification")
    return EquivalenceResult(True, witness=witness)


def dedup_families(records: list, sizes: list[int] | None = None) -> list:
    """Check a stream of `CandidateRecord`s and collapse it to one representative per equivalence class.

    `records` is a run of shards of the given `sizes` (one shard of every
    record by default), where no class crosses a shard;
    `atlas.enumerate_atlas` passes one shard per value of `_shard_key`, the
    class invariant. Each shard is walked on its own: its records are
    indexed by canonical key; walking the keys
    in ascending order, each still-present record gets the one record check,
    `enumeration.record_problem` (InvariantViolation on a problem, with the
    record's provenance), runs the equivalent-set search with the meta that
    check returned, and every other member found in the index is removed.
    Only the keys are read, so no map is built and no form beyond the
    search's starting forms; a checked system is primitive (the check covers
    the row gcds) and is searched as it is. The survivors of all shards come
    back in key order.

    The search's first pair is the record's own key: a checked record is
    its own form at its least base (rule 3 of `equivalent_normalized_set`),
    so any other first key is an error. The search then stops as soon as the
    index holds no key of the shard but the record's own: a search reaches
    only forms of the record's class, which lie in its shard, so nothing is
    left for it to remove, and the last record of a shard gets only that
    first step, as does every record of a one-class shard. Walked records
    count as held, since a later search can still remove them (below).

    Every survivor is walked, so every record returned is checked. A record
    is dropped unwalked only when its key is in the searched set of a record
    already checked; the key is injective on forms, so it is a form of a
    checked simplex, and its family cannot differ, as an empty simplex is
    never equivalent to a lattice one.

    Nothing is memoized, so memory stays flat however long the stream. A
    walked record is removed again when a later record's search reaches
    its key although its own search missed the later one, which the
    incomplete search allows (see the module docstring): at (4, 5) both,
    17 of the 74 records walked. So the survivor of a class is not always
    the record with its least key present.
    """
    kept: dict = {}
    start = 0
    for size in [len(records)] if sizes is None else sizes:
        index: dict = {}
        for rec in records[start : start + size]:
            index.setdefault(key_tuple(rec.ns), rec)
        start += size
        for key in sorted(index):
            rec = index.get(key)
            if rec is None:
                continue
            problem, meta = record_problem(rec.ns, rec.family)
            if problem is not None:
                raise InvariantViolation(f"record {canonical_key(rec.ns)}: {problem} [provenance {rec.provenance}]")
            pairs = _search(rec.system(), meta)
            if next(pairs)[0].key != key:
                raise InvariantViolation("record is not its own form at its least base")
            while len(index) > 1:  # another key of the shard is held
                pair = next(pairs, None)
                if pair is None:
                    break
                index.pop(pair[0].key, None)
        kept.update(index)
    return [kept[key] for key in sorted(kept)]
