"""Atlas library: every file format, enumeration, verification and statistics.

Every JSON object the package reads or writes is coded here: systems
(`system-v1`), normalized systems (`normalized-v1`), atlas records
(`atlas-v1`) and maps; readers accept JSON integers only. Atlas files are
JSON Lines, one record per line, sorted by canonical key; identical
arguments always produce byte-identical files. Enumeration runs one path at
every `jobs`: `candidate_records` maps the blocks to their records, and
`enumerate_atlas`, the one place that knows shards exist, keys the
candidates by a class invariant, shards them and walks the shards in
bins; `jobs` only changes how the blocks and the bins are partitioned over
forked processes (one bin, walked in this process, at `jobs` = 1), never
the output.
"""

from __future__ import annotations

import json
import math
import os
import sys

from .enumeration import FAMILY_EMPTY, CandidateRecord, candidates_for_block, enumerate_H, record_problem
from .equivalence import _shard_key, class_keys, dedup_families
from .errors import DeltaSimplexError, PreconditionError, ScaleExceededError
from .normal_form import NormalizedSystem, canonical_key, key_tuple
from .simplex_model import AffineUnimodularMap, InequalitySystem, count_integer_points_bruteforce

SYSTEM_FORMAT = "delta-simplex/system-v1"
NORMALIZED_FORMAT = "delta-simplex/normalized-v1"
ATLAS_FORMAT = "delta-simplex/atlas-v1"
_OBJECT_NAMES = {SYSTEM_FORMAT: "a system", NORMALIZED_FORMAT: "a normalized system", ATLAS_FORMAT: "an atlas record"}


# ---------------------------------------------------------------------------
# File formats


def _check_tagged(data, fmt: str) -> None:
    """Raise unless `data` is a JSON object whose format tag is `fmt`."""
    if not isinstance(data, dict):
        raise PreconditionError(f"{_OBJECT_NAMES[fmt]} must be a JSON object")
    if data.get("format") != fmt:
        raise PreconditionError(f"expected format {fmt!r}, got {data.get('format')!r}")


def _field(data: dict, key: str):
    """Field `key` of a parsed JSON object; a missing key is an input error."""
    if key not in data:
        raise PreconditionError(f"input is missing the key {key!r}")
    return data[key]


def _ints(data: dict, key: str, depth: int = 0):
    """Field `key` as an integer (depth 0), a vector (1) or a matrix (2) of integers.

    Only JSON integers are accepted: a float, bool or string entry is an
    input error rather than something to truncate or coerce.
    """

    def check(value, depth: int):
        if depth == 0:
            if type(value) is not int:
                raise PreconditionError(f"{key!r} must hold integers, got {value!r}")
            return value
        if not isinstance(value, list):
            raise PreconditionError(f"{key!r} must hold lists, got {value!r}")
        return tuple(check(x, depth - 1) for x in value)

    return check(_field(data, key), depth)


def system_to_dict(sys: InequalitySystem) -> dict:
    return {"format": SYSTEM_FORMAT, "n": sys.n, "A": [list(row) for row in sys.A], "b": list(sys.b)}


def system_from_dict(data: dict) -> InequalitySystem:
    _check_tagged(data, SYSTEM_FORMAT)
    return InequalitySystem(_ints(data, "n"), _ints(data, "A", 2), _ints(data, "b", 1))


def normalized_to_dict(ns: NormalizedSystem) -> dict:
    return {
        "format": NORMALIZED_FORMAT, "n": ns.n, "s": ns.s, "k": ns.k, "delta": ns.delta,
        "H": [list(row) for row in ns.H], "h": list(ns.h), "c": list(ns.c), "c0": ns.c0,
    }


def normalized_from_dict(data: dict, fmt: str = NORMALIZED_FORMAT) -> NormalizedSystem:
    """The normalized system in a JSON object tagged `fmt`: a `normalized-v1` object or an atlas record."""
    _check_tagged(data, fmt)
    return NormalizedSystem(
        n=_ints(data, "n"), s=_ints(data, "s"), k=_ints(data, "k"), H=_ints(data, "H", 2),
        h=_ints(data, "h", 1), c=_ints(data, "c", 1), c0=_ints(data, "c0"), delta=_ints(data, "delta"),
    )


def map_to_dict(m: AffineUnimodularMap) -> dict:
    return {"U": [list(row) for row in m.U], "x0": list(m.x0)}


def _load_json(path: str):
    """The JSON value in the file at `path`; a file that is not UTF-8 or not JSON is an input error naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise PreconditionError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:  # the whole file is decoded at once, so the position is the file's
            raise PreconditionError(f"{path}: {exc}") from None


def _load_object(path: str) -> dict:
    """The JSON object in the file at `path`; any other JSON value is an input error naming the file."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise PreconditionError(f"{path}: expected a JSON object")
    return data


def load_system(path: str) -> InequalitySystem:
    """The simplex in a `system-v1` or `normalized-v1` JSON file."""
    data = _load_object(path)
    fmt = data.get("format")
    if fmt == SYSTEM_FORMAT:
        return system_from_dict(data)
    if fmt == NORMALIZED_FORMAT:
        return normalized_from_dict(data).system()
    raise PreconditionError(f"unsupported input format {fmt!r}")


def load_normalized(path: str) -> NormalizedSystem:
    """The normalized system in a `normalized-v1` JSON file."""
    return normalized_from_dict(_load_object(path))


def record_to_dict(rec: CandidateRecord) -> dict:
    return {
        **normalized_to_dict(rec.ns),
        "format": ATLAS_FORMAT,
        "family": rec.family,
        "canonical_key": canonical_key(rec.ns),
        "provenance": rec.provenance,
    }


def record_from_dict(data: dict) -> CandidateRecord:
    ns = normalized_from_dict(data, ATLAS_FORMAT)
    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict):
        raise PreconditionError(f"provenance must be a JSON object, got {provenance!r}")
    family = _field(data, "family")
    if not isinstance(family, str):
        raise PreconditionError(f"family must be a JSON string, got {family!r}")
    return CandidateRecord(ns, family, dict(provenance))


def _record_line(rec: CandidateRecord) -> str:
    return json.dumps(record_to_dict(rec), sort_keys=True, separators=(",", ":"))


def write_atlas(records, stream) -> None:
    for rec in records:
        stream.write(_record_line(rec) + "\n")


def read_atlas(stream, problems: list[str] | None = None) -> list[CandidateRecord]:
    """The records of an atlas file, in file order; blank lines are skipped.

    A line that is not UTF-8, not valid JSON or not a valid record raises
    `PreconditionError` naming its 1-based line number, and for invalid
    JSON the 1-based column of the error in that line. A stream opened with
    `errors="surrogateescape"` hands a byte that is not UTF-8 on as a lone
    surrogate, so such a line is reported here, by its number, rather than
    by the stream's decoder at an offset into its read chunk. With a `problems`
    list, each record whose stored `canonical_key` does not match its system
    is reported there (the record is still returned).
    """
    records = []
    for number, line in enumerate(stream, 1):
        # Leading blanks stay, so that a JSON error's column is the file's.
        line = line.rstrip()
        if not line:
            continue
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")  # raises on a lone surrogate
            data = json.loads(line)
            rec = record_from_dict(data)
        except json.JSONDecodeError as exc:
            raise PreconditionError(f"line {number} column {exc.colno}: {exc.msg}") from None
        except (ValueError, DeltaSimplexError) as exc:
            raise PreconditionError(f"line {number}: {exc}") from None
        if problems is not None and data.get("canonical_key") != canonical_key(rec.ns):
            problems.append(
                f"record {len(records)}: stored canonical key {data.get('canonical_key')!r} does not "
                f"match the system [provenance {rec.provenance}]"
            )
        records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Enumeration orchestration


def _stripe(func, tasks: list, start: int, step: int):
    """(results, failure) of `func` over tasks[start::step] in order; it stops at a failure, (index, exception)."""
    results = []
    for i in range(start, len(tasks), step):
        try:
            results.append(func(tasks[i]))
        except Exception as exc:  # raised by `_parallel_map` if no task before it failed
            return results, (i, exc)
    return results, None


def _parallel_map(func, tasks: list, jobs: int) -> list:
    """`list(map(func, tasks))`, with the tasks striped over min(jobs, len(tasks)) processes.

    Process j runs tasks[j::jobs] in order: this process stripe 0, and one
    `os.fork` child each of the others. A child inherits `func` and the
    tasks, pickles only its stripe's `_stripe` pair to a pipe and leaves by
    `os._exit`, so the parent's buffers and exit handlers never run twice.
    The failure with the least task index is raised: every task before it
    ran and passed, so it is the error a serial map raises. A child that
    ends without sending its stripe raises ChildProcessError. Every child
    is reaped, and on any other exit (KeyboardInterrupt included) killed
    first. Without `os.fork`, or with other threads running (a fork copies
    only the calling thread, so a lock another thread holds stays held in
    the child), the map runs in this process.
    """
    jobs = min(jobs, len(tasks))
    threading = sys.modules.get("threading")
    if jobs < 2 or not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return list(map(func, tasks))
    import pickle  # not at module level: only a map with children reads it
    import signal

    pids: list[int] = []
    pipes = []  # the read end of each child's pipe
    reaped = set()
    try:
        for start in range(1, jobs):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        pickle.dump(_stripe(func, tasks, start, jobs), writer)
                        writer.flush()
                        status = 0
                    finally:
                        os._exit(status)
            pids.append(pid)
        stripes = [_stripe(func, tasks, 0, jobs)]
        for pid, pipe in zip(pids, pipes):
            sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"worker process {pid} ended with exit code {code} before sending its results")
            stripes.append(pickle.loads(sent))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in stripes if failure is not None]
    if failures:
        raise min(failures)[1]
    results = [None] * len(tasks)
    for start, (done, _) in enumerate(stripes):
        results[start::jobs] = done
    return results


def _block_task(args):
    # `candidates_for_block` is looked up here at each call, so a rebinding
    # of the module's name (a tracer's timing wrapper) is what runs. A block
    # gives its records only: the shard keys are `enumerate_atlas`'s.
    empties, lattices = candidates_for_block(*args)  # args = (block, want_empty, want_lattice)
    return empties + lattices


def _dedup_task(args):
    # Looked up at each call, as in `_block_task`; args = (records, shard sizes).
    return dedup_families(*args)


_FAMILY_FLAGS = {"empty": (True, False), "lattice": (False, True), "both": (True, True)}  # (want_empty, want_lattice)


def candidate_records(delta: int, dim: int, family: str = "both", up_to: bool = False, jobs: int = 1):
    """Every candidate record for (delta, dim), in block order, before dedup; none is checked yet.

    The block walk: with `up_to`, the blocks of every delta' <= delta go into
    one task list; each block gives its empty-family records, then its
    lattice one. With `jobs` > 1 and more than one block, `_parallel_map`
    stripes the whole list over min(jobs, blocks) processes, this one and
    forked children; otherwise the list is mapped here and nothing is
    forked. The list is the same, order and provenance included, for every
    `jobs`. The record check runs in `dedup_families`, on every record it
    walks: every survivor, and every dropped candidate's key lies in the
    searched set of a record already checked, so it is a form of a checked
    simplex of the same family (see `enumeration._record`).
    """
    if family not in _FAMILY_FLAGS:
        raise PreconditionError(f"unknown family {family!r}")
    want_empty, want_lattice = _FAMILY_FLAGS[family]
    for name, value in (("delta", delta), ("dim", dim), ("jobs", jobs)):
        if value < 1:
            raise PreconditionError(f"{name} must be at least 1, got {value}")
    tasks = [
        (block, want_empty, want_lattice)
        for d in (range(1, delta + 1) if up_to else [delta])
        for block in enumerate_H(d, dim)
    ]
    return [rec for records in _parallel_map(_block_task, tasks, jobs) for rec in records]


def enumerate_atlas(delta: int, dim: int, family: str = "both", up_to: bool = False, jobs: int = 1):
    """Checked, deduplicated, key-sorted atlas records for (delta, dim): `candidate_records`, then dedup.

    delta is part of the canonical key and a class invariant, so with
    `up_to` no equivalence search crosses delta values.

    Dedup is sharded by `equivalence._shard_key`, the package's one exact
    class invariant, computed here, in this process, for every candidate:
    it is read off the candidate's form and the adjugate of its H, with the
    edge contents memoized per cone (H, c). No class
    crosses a shard, so every removal of the walk is shard-local, and each
    shard's ascending walk makes the same decisions as one walk over all
    keys; a finer partition by a class invariant changes no decision. The
    shards are packed, largest first, into min(jobs, shards) bins of about
    equal candidate counts; `_parallel_map` runs `dedup_families` once per
    bin, on the bin's records and shard sizes, in forked children that
    inherit the candidates, and the survivors are merged by key. The walk
    stops each search once its shard holds no other key, which in a shard
    of one class is after the search's first step. At `jobs` = 1 the one
    bin holds every candidate and is walked here. The shards share no memo
    entries, so more bins together do more Hermite work than one. A failed
    walk is a generator bug; the walk of all candidates as one shard, in
    ascending key order, is then rerun here, so the error raised is that of
    the least failing key at every `jobs`.
    """
    records = candidate_records(delta, dim, family, up_to, jobs)
    shards: dict = {}  # shard key -> its records, in stream order, so a repeated key keeps its first record
    for rec in records:
        shards.setdefault(_shard_key(rec.ns), []).append(rec)
    bins = [([], []) for _ in range(min(jobs, len(shards)))]  # (records, shard sizes)
    for shard in sorted(shards.values(), key=len, reverse=True):
        members, sizes = min(bins, key=lambda b: len(b[0]))
        members.extend(shard)
        sizes.append(len(shard))
    try:
        survivors = _parallel_map(_dedup_task, bins, jobs)
    except DeltaSimplexError:
        return dedup_families(records)
    return sorted((rec for done in survivors for rec in done), key=lambda rec: key_tuple(rec.ns))


# ---------------------------------------------------------------------------
# Verification and statistics


def eq1_bound(delta: int, n: int) -> float:
    """Closed-form class-count bound binom(n+delta-1, delta-1) * delta^(log2(delta)+2).

    A bound too large for a float (delta from 2^32 on, or a binomial past
    the float range) is `math.inf`, which no count exceeds.
    """
    if delta < 1:
        raise PreconditionError(f"delta must be at least 1, got {delta}")
    try:
        return math.comb(n + delta - 1, delta - 1) * delta ** (math.log2(delta) + 2)
    except OverflowError:
        return math.inf


def verify_atlas(records) -> list[str]:
    """Re-validate every record; returns a list of human-readable problems.

    Checks, per record: the record check that the dedup walk runs,
    `enumeration.record_problem` (the normal form, which recomputes delta;
    a simplex; a known family; integral vertices for the lattice family),
    then in every dimension the point-count oracle for the claimed family,
    which reuses the validated simplex; a record whose bounding box exceeds
    the oracle's cap is reported as "emptiness not checked" rather than
    passed.
    Canonical keys must be strictly ascending, as the file contract says, so
    a repeated or misplaced record is reported with its neighbour. Every
    pair of valid records must be inequivalent. The valid records are
    grouped by `equivalence._shard_key` of their forms, the exact class
    invariant that dedup shards by, which fixes n and delta, so records of
    different groups are inequivalent without a search. A
    valid record is primitive and is its own form at its least base, so
    within a group a pair is equivalent iff the later key is in the earlier
    record's `class_keys`: every record but the group's last is searched
    once, with the meta its record check returned.
    """
    problems = []
    keys = [key_tuple(rec.ns) for rec in records]
    for i in range(1, len(keys)):
        if keys[i - 1] >= keys[i]:
            what = "duplicate canonical key" if keys[i - 1] == keys[i] else "canonical keys out of ascending order"
            problems.append(
                f"records {i - 1} and {i}: {what} "
                f"({canonical_key(records[i - 1].ns)} then {canonical_key(records[i].ns)})"
            )
    groups: dict = {}  # class invariant -> [(key, record, system, meta)] of the valid records
    for i, rec in enumerate(records):
        label = f"record {i} (key {canonical_key(rec.ns)})"
        problem, meta = record_problem(rec.ns, rec.family)
        if problem is not None:
            problems.append(f"{label}: {problem} [provenance {rec.provenance}]")
            continue
        sys = rec.system()
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
        groups.setdefault(_shard_key(rec.ns), []).append((keys[i], rec, sys, meta))
    for group in groups.values():
        for i, (_, rec, sys, meta) in enumerate(group[:-1]):
            reached = class_keys(sys, meta)
            problems.extend(
                f"records with keys {canonical_key(rec.ns)} and {canonical_key(other.ns)} are unimodular equivalent"
                for key, other, _, _ in group[i + 1 :]
                if key in reached
            )
    return problems


def stats_atlas(records) -> tuple[list[dict], bool]:
    """Counts per (delta, n, family) with the class-count bound alongside."""
    counts: dict = {}
    for rec in records:
        counts[(rec.ns.delta, rec.ns.n, rec.family)] = counts.get((rec.ns.delta, rec.ns.n, rec.family), 0) + 1
    rows = []
    for (delta, n, family) in sorted(counts):
        bound = eq1_bound(delta, n)
        violated = family == FAMILY_EMPTY and counts[(delta, n, family)] > bound
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
    return rows, any(row["bound_exceeded"] for row in rows)
