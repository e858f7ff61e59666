"""Command-line front end and JSONL atlas persistence.

Subcommands:
  enumerate    build the atlas of class representatives for (delta, n)
  normalize    canonicalize one system, printing the form, map, and key
  check-equiv  decide unimodular equivalence of two systems (exit 0/1/2)
  verify       re-validate an atlas file record by record
  stats        per-(delta, n, family) counts with the closed-form bound
  corner       debug: cone minimum and witness for a normalized system

Atlas files are JSON Lines, one record per line, sorted by canonical key;
identical flags always produce byte-identical files, and `--jobs J` only
changes how the candidate blocks are partitioned, never the output.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys

from .enumeration import (
    FAMILY_EMPTY,
    FAMILY_LATTICE,
    CandidateRecord,
    candidates_for_block,
    enumerate_H,
)
from .equivalence import check_equivalence, dedup_families
from .errors import DeltaSimplexError
from .corner_ilp import corner_minimum
from .normal_form import (
    NORMALIZED_FORMAT,
    canonical_key,
    key_tuple,
    normalize,
    normalized_fields_from_dict,
    normalized_from_dict,
    normalized_to_dict,
    primitivize,
    validate_normalized,
)
from .simplex_model import (
    SYSTEM_FORMAT,
    InequalitySystem,
    count_integer_points_bruteforce,
    json_field,
    system_from_dict,
    validate_simplex,
)

ATLAS_FORMAT = "delta-simplex/atlas-v1"
JOBS_ENV_VAR = "DELTA_SIMPLEX_JOBS"
ORACLE_MAX_DIM = 6


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
    return CandidateRecord(ns, json_field(data, "family"), dict(provenance))


def _record_line(rec: CandidateRecord) -> str:
    return json.dumps(record_to_dict(rec), sort_keys=True, separators=(",", ":"))


def write_atlas(records, stream) -> None:
    for rec in records:
        stream.write(_record_line(rec) + "\n")


def read_atlas(stream) -> list[CandidateRecord]:
    records = []
    for line in stream:
        line = line.strip()
        if line:
            records.append(record_from_dict(json.loads(line)))
    return records


def load_system_file(path: str) -> InequalitySystem:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DeltaSimplexError(f"{path}: expected a JSON object")
    fmt = data.get("format")
    if fmt == SYSTEM_FORMAT:
        return system_from_dict(data)
    if fmt == NORMALIZED_FORMAT:
        return normalized_from_dict(data).system()
    raise DeltaSimplexError(f"unsupported input format {fmt!r}")


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

    With `up_to`, the atlases for every delta' <= delta are built and
    concatenated; classes are disjoint across delta values because the
    normalized determinant is a class invariant.
    """
    want_empty, want_lattice = _family_flags(family)
    out: list[CandidateRecord] = []
    for d in range(1, delta + 1) if up_to else [delta]:
        tasks = [(block, want_empty, want_lattice) for block in enumerate_H(d, dim)]
        if jobs > 1 and len(tasks) > 1:
            with multiprocessing.Pool(processes=jobs) as pool:
                results = pool.map(_block_task, tasks)
        else:
            results = [_block_task(t) for t in tasks]
        candidates: list[CandidateRecord] = []
        for empties, lattices in results:
            candidates.extend(empties)
            candidates.extend(lattices)
        out.extend(dedup_families(candidates))
    out.sort(key=lambda rec: key_tuple(rec.ns))
    return out


# ---------------------------------------------------------------------------
# Verification and statistics


def eq1_bound(delta: int, n: int) -> float:
    """Closed-form class-count bound binom(n+delta-1, delta-1) * delta^(log2(delta)+2)."""
    return math.comb(n + delta - 1, delta - 1) * delta ** (math.log2(delta) + 2)


def verify_atlas(records, max_pairs: int = 100) -> list[str]:
    """Re-validate every record; returns a list of human-readable problems.

    Checks, per record: stored canonical key, the normalized-form validator
    (which recomputes delta), simplex validity, and for dimensions up to 6
    the point-count oracle for the claimed family. A deterministic sample
    of same-(n, delta) record pairs must also be mutually inequivalent.
    """
    problems = []
    good = []
    for i, rec in enumerate(records):
        label = f"record {i} (key {canonical_key(rec.ns)})"
        ok, violated = validate_normalized(rec.ns)
        if not ok:
            problems.append(f"{label}: validator violation {violated} [provenance {rec.provenance}]")
            continue
        try:
            validate_simplex(rec.system())
        except DeltaSimplexError as exc:
            problems.append(f"{label}: emptiness/validator violation: not a simplex ({exc}) [provenance {rec.provenance}]")
            continue
        if rec.family not in (FAMILY_EMPTY, FAMILY_LATTICE):
            problems.append(f"{label}: unknown family {rec.family!r}")
            continue
        if rec.ns.n <= ORACLE_MAX_DIM:
            count = count_integer_points_bruteforce(rec.system())
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


# ---------------------------------------------------------------------------
# Subcommand handlers


def _default_jobs() -> int:
    env = os.environ.get(JOBS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _cmd_enumerate(args) -> int:
    records = enumerate_atlas(args.delta, args.dim, args.family, args.up_to, args.jobs)
    if args.verify:
        problems = verify_atlas(records)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            return 1
    if args.out == "-":
        write_atlas(records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_atlas(records, fh)
    return 0


def _cmd_normalize(args) -> int:
    sys_in = load_system_file(args.file)
    if args.base == "auto":
        # Base selection works on the primitive representation, like normalize.
        meta = validate_simplex(primitivize(sys_in))
        base = min(meta.max_det_bases)
    else:
        base = tuple(int(x) - 1 for x in args.base.split(","))
    ns, amap, row_perm = normalize(sys_in, base)
    payload = {
        "normalized": normalized_to_dict(ns),
        "map": {"U": [list(row) for row in amap.U], "x0": list(amap.x0)},
        "row_permutation": [i + 1 for i in row_perm],
        "canonical_key": canonical_key(ns),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_check_equiv(args) -> int:
    sys_a = load_system_file(args.file_a)
    sys_b = load_system_file(args.file_b)
    result = check_equivalence(sys_a, sys_b)
    if result.equivalent:
        payload = {
            "equivalent": True,
            "witness": {"U": [list(row) for row in result.witness.U], "x0": list(result.witness.x0)},
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(json.dumps({"equivalent": False, "certificate": result.certificate}, sort_keys=True))
    return 1


def _cmd_verify(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        raw_lines = [line.strip() for line in fh if line.strip()]
    records = []
    problems = []
    for i, line in enumerate(raw_lines):
        data = json.loads(line)
        rec = record_from_dict(data)
        if data.get("canonical_key") != canonical_key(rec.ns):
            problems.append(
                f"record {i}: stored canonical key {data.get('canonical_key')!r} does not "
                f"match the system [provenance {rec.provenance}]"
            )
        records.append(rec)
    problems.extend(verify_atlas(records, max_pairs=args.max_pairs))
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"FAIL: {len(problems)} problem(s) in {len(records)} record(s)")
        return 1
    print(f"OK: {len(records)} record(s) verified")
    return 0


def _cmd_stats(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        records = read_atlas(fh)
    rows, any_violation = stats_atlas(records)
    for row in rows:
        flag = " BOUND-EXCEEDED" if row["bound_exceeded"] else ""
        print(
            f"delta={row['delta']} n={row['n']} family={row['family']} "
            f"count={row['count']} bound={row['bound']:.3f}{flag}"
        )
    print(f"total={len(records)}")
    return 1 if any_violation else 0


def _cmd_corner(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        ns = normalized_from_dict(json.load(fh))
    sol = corner_minimum(ns.H, ns.h, ns.c)
    print(json.dumps({"f_star": sol.f_star, "witness": list(sol.witness_x)}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delta-simplex",
        description="Enumerate and classify empty Delta-modular simplices with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="build the atlas of class representatives")
    p.add_argument("--delta", type=int, required=True, help="determinant parameter (>= 1)")
    p.add_argument("--dim", type=int, required=True, help="ambient dimension (>= 1)")
    p.add_argument("--family", choices=["empty", "lattice", "both"], default="both")
    p.add_argument("--up-to", action="store_true", help="union the atlases for all delta' <= delta")
    p.add_argument("--jobs", type=int, default=_default_jobs(), help=f"worker processes (default ${JOBS_ENV_VAR} or 1)")
    p.add_argument("--verify", action="store_true", help="re-validate every record before writing")
    p.add_argument("--out", default="-", help="output JSONL path ('-' for stdout)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("normalize", help="canonicalize one system")
    p.add_argument("file", help="system-v1 or normalized-v1 JSON file")
    p.add_argument("--base", default="auto", help="'auto' or comma-separated 1-based row indices")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("check-equiv", help="decide unimodular equivalence of two systems")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_check_equiv)

    p = sub.add_parser("verify", help="re-validate an atlas file")
    p.add_argument("file")
    p.add_argument("--max-pairs", type=int, default=100, help="cap on pairwise non-equivalence checks")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="atlas counts with the class-count bound")
    p.add_argument("file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("corner", help="cone minimum and witness for a normalized system")
    p.add_argument("file")
    p.set_defaults(func=_cmd_corner)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DeltaSimplexError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
