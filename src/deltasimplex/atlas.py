"""Atlas library: the JSONL record codec, enumeration, verification and statistics.

Atlas files are JSON Lines, one record per line, sorted by canonical key;
identical arguments always produce byte-identical files, and `jobs` only
changes how the candidate blocks are partitioned, never the output.
"""

from __future__ import annotations

import json
import math

from .enumeration import FAMILY_EMPTY, FAMILY_LATTICE, CandidateRecord, candidates_for_block, enumerate_H
from .equivalence import check_equivalence, dedup_families
from .errors import DeltaSimplexError, PreconditionError, ScaleExceededError
from .normal_form import (
    canonical_key,
    key_tuple,
    normalized_fields_from_dict,
    normalized_to_dict,
    validate_normalized,
)
from .simplex_model import count_integer_points_bruteforce, json_field, validate_simplex

ATLAS_FORMAT = "delta-simplex/atlas-v1"


# ---------------------------------------------------------------------------
# Record serialization


def record_to_dict(rec: CandidateRecord) -> dict:
    return {
        **normalized_to_dict(rec.ns),
        "format": ATLAS_FORMAT,
        "family": rec.family,
        "canonical_key": canonical_key(rec.ns),
        "provenance": rec.provenance,
    }


def record_from_dict(data: dict) -> CandidateRecord:
    if not isinstance(data, dict):
        raise DeltaSimplexError("an atlas record must be a JSON object")
    if data.get("format") != ATLAS_FORMAT:
        raise DeltaSimplexError(f"expected format {ATLAS_FORMAT!r}, got {data.get('format')!r}")
    ns = normalized_fields_from_dict(data)
    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict):
        raise DeltaSimplexError(f"provenance must be a JSON object, got {provenance!r}")
    family = json_field(data, "family")
    if not isinstance(family, str):
        raise DeltaSimplexError(f"family must be a JSON string, got {family!r}")
    return CandidateRecord(ns, family, dict(provenance))


def _record_line(rec: CandidateRecord) -> str:
    return json.dumps(record_to_dict(rec), sort_keys=True, separators=(",", ":"))


def write_atlas(records, stream) -> None:
    for rec in records:
        stream.write(_record_line(rec) + "\n")


def read_atlas(stream, problems: list[str] | None = None) -> list[CandidateRecord]:
    """The records of an atlas file, in file order; blank lines are skipped.

    With a `problems` list, each record whose stored `canonical_key` does
    not match its system is reported there (the record is still returned).
    """
    records = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        rec = record_from_dict(data)
        if problems is not None and data.get("canonical_key") != canonical_key(rec.ns):
            problems.append(
                f"record {len(records)}: stored canonical key {data.get('canonical_key')!r} does not "
                f"match the system [provenance {rec.provenance}]"
            )
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Enumeration orchestration


def _block_task(args):
    block, want_empty, want_lattice = args
    return candidates_for_block(block, want_empty, want_lattice)


def _family_flags(family: str) -> tuple[bool, bool]:
    if family == "empty":
        return True, False
    if family == "lattice":
        return False, True
    if family == "both":
        return True, True
    raise DeltaSimplexError(f"unknown family {family!r}")


def enumerate_atlas(delta: int, dim: int, family: str = "both", up_to: bool = False, jobs: int = 1):
    """Deduplicated, key-sorted atlas records for (delta, dim).

    With `up_to`, the blocks of every delta' <= delta go into one task list
    and one dedup: delta is part of the canonical key and a class invariant,
    so no equivalence search crosses delta values. With `jobs` > 1 and more
    than one block, one worker pool maps the whole list; otherwise none is
    started and `multiprocessing` is not imported.
    """
    want_empty, want_lattice = _family_flags(family)
    for name, value in (("delta", delta), ("dim", dim), ("jobs", jobs)):
        if value < 1:
            raise PreconditionError(f"{name} must be at least 1, got {value}")
    tasks = [
        (block, want_empty, want_lattice)
        for d in (range(1, delta + 1) if up_to else [delta])
        for block in enumerate_H(d, dim)
    ]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing  # not at module level: the import adds about 11 ms to every CLI start

        with multiprocessing.Pool(processes=jobs) as pool:
            results = pool.map(_block_task, tasks)
    else:
        results = map(_block_task, tasks)
    candidates: list[CandidateRecord] = []
    for empties, lattices in results:
        candidates.extend(empties)
        candidates.extend(lattices)
    return dedup_families(candidates)  # survivors come out in ascending key order


# ---------------------------------------------------------------------------
# Verification and statistics


def eq1_bound(delta: int, n: int) -> float:
    """Closed-form class-count bound binom(n+delta-1, delta-1) * delta^(log2(delta)+2)."""
    return math.comb(n + delta - 1, delta - 1) * delta ** (math.log2(delta) + 2)


def verify_atlas(records, max_pairs: int = 100) -> list[str]:
    """Re-validate every record; returns a list of human-readable problems.

    Checks, per record: the normalized-form validator (which recomputes
    delta), simplex validity, and in every dimension the point-count oracle
    for the claimed family, which reuses the validated simplex; a record
    whose bounding box exceeds the oracle's cap is reported as "emptiness
    not checked" rather than passed.
    Canonical keys must be strictly ascending, as the file contract says, so
    a repeated or misplaced record is reported with its neighbour. A deterministic sample of same-(n, delta)
    record pairs must also be mutually inequivalent; `max_pairs` caps that
    sample, and a negative cap is an error rather than an unchecked sample.
    """
    if max_pairs < 0:
        raise PreconditionError(f"max_pairs must be at least 0, got {max_pairs}")
    problems = []
    keys = [key_tuple(rec.ns) for rec in records]
    for i in range(1, len(keys)):
        if keys[i - 1] >= keys[i]:
            what = "duplicate canonical key" if keys[i - 1] == keys[i] else "canonical keys out of ascending order"
            problems.append(
                f"records {i - 1} and {i}: {what} "
                f"({canonical_key(records[i - 1].ns)} then {canonical_key(records[i].ns)})"
            )
    good = []
    for i, rec in enumerate(records):
        label = f"record {i} (key {canonical_key(rec.ns)})"
        ok, violated = validate_normalized(rec.ns)
        if not ok:
            problems.append(f"{label}: validator violation {violated} [provenance {rec.provenance}]")
            continue
        sys = rec.system()
        try:
            meta = validate_simplex(sys)
        except DeltaSimplexError as exc:
            problems.append(f"{label}: emptiness/validator violation: not a simplex ({exc}) [provenance {rec.provenance}]")
            continue
        if rec.family not in (FAMILY_EMPTY, FAMILY_LATTICE):
            problems.append(f"{label}: unknown family {rec.family!r}")
            continue
        try:
            count = count_integer_points_bruteforce(sys, meta=meta)
        except ScaleExceededError as exc:
            problems.append(f"{label}: emptiness not checked: {exc} [provenance {rec.provenance}]")
            continue
        expected = 0 if rec.family == FAMILY_EMPTY else rec.ns.n + 1
        if count != expected:
            problems.append(
                f"{label}: emptiness/validator violation: {count} integer points, "
                f"expected {expected} [provenance {rec.provenance}]"
            )
            continue
        good.append(rec)
    # Pairwise non-equivalence sampling within (n, delta) groups of valid records.
    groups: dict = {}
    for rec in good:
        groups.setdefault((rec.ns.n, rec.ns.delta), []).append(rec)
    checked = 0
    for key in sorted(groups):
        group = groups[key]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if checked >= max_pairs:
                    break
                result = check_equivalence(group[i].system(), group[j].system())
                checked += 1
                if result.equivalent:
                    problems.append(
                        f"records with keys {canonical_key(group[i].ns)} and "
                        f"{canonical_key(group[j].ns)} are unimodular equivalent"
                    )
    return problems


def stats_atlas(records) -> tuple[list[dict], bool]:
    """Counts per (delta, n, family) with the class-count bound alongside."""
    counts: dict = {}
    for rec in records:
        counts[(rec.ns.delta, rec.ns.n, rec.family)] = counts.get((rec.ns.delta, rec.ns.n, rec.family), 0) + 1
    rows = []
    any_violation = False
    for (delta, n, family) in sorted(counts):
        bound = eq1_bound(delta, n)
        violated = family == FAMILY_EMPTY and counts[(delta, n, family)] > bound
        any_violation = any_violation or violated
        rows.append(
            {
                "delta": delta,
                "n": n,
                "family": family,
                "count": counts[(delta, n, family)],
                "bound": bound,
                "bound_exceeded": violated,
            }
        )
    return rows, any_violation
