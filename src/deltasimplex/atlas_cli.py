"""Command-line front end.

Subcommands:
  enumerate    build the atlas of class representatives for (delta, n)
  normalize    canonicalize one system, printing the form, map, and key
  check-equiv  decide unimodular equivalence of two systems (exit 0/1/2)
  verify       re-validate an atlas file record by record
  stats        per-(delta, n, family) counts with the closed-form bound
  corner       debug: cone minimum and witness for a normalized system

Every file format (`atlas`) and the work behind each subcommand live in the
library modules (`atlas`, `equivalence`, `normal_form`, ...); this module
parses arguments, prints results and maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .atlas import (
    enumerate_atlas,
    load_normalized,
    load_system,
    map_to_dict,
    normalized_to_dict,
    read_atlas,
    stats_atlas,
    verify_atlas,
    write_atlas,
)
from .corner_ilp import corner_minimum
from .equivalence import check_equivalence
from .errors import DeltaSimplexError, PreconditionError
from .normal_form import canonical_key, normalize, primitivize
from .simplex_model import validate_simplex


# ---------------------------------------------------------------------------
# Subcommand handlers


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    sys_in = load_system(args.file)
    # Base selection works on the primitive representation, like normalize.
    bases = validate_simplex(primitivize(sys_in)).max_det_bases
    if args.base == "auto":
        base = min(bases)
    else:
        try:
            base = tuple(sorted(int(x) - 1 for x in args.base.split(",")))
        except ValueError:  # an entry that is not an integer: rejected below with the other bad bases
            base = ()
        n = sys_in.n
        if len(set(base)) != n or len(base) != n or not all(0 <= i <= n for i in base):
            raise PreconditionError(f"--base must be {n} distinct row indices in 1..{n + 1}, got {args.base!r}")
        if base not in bases:
            valid = " ".join(",".join(str(i + 1) for i in b) for b in sorted(bases))
            raise PreconditionError(f"--base {args.base} does not attain the maximal minor; valid bases: {valid}")
    ns, amap, row_perm = normalize(sys_in, base)
    payload = {
        "normalized": normalized_to_dict(ns),
        "map": map_to_dict(amap),
        "row_permutation": [i + 1 for i in row_perm],
        "canonical_key": canonical_key(ns),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_check_equiv(args) -> int:
    result = check_equivalence(load_system(args.file_a), load_system(args.file_b))
    if result.equivalent:
        print(json.dumps({"equivalent": True, "witness": map_to_dict(result.witness)}, sort_keys=True))
        return 0
    print(json.dumps({"equivalent": False, "certificate": result.certificate}, sort_keys=True))
    return 1


def _cmd_verify(args) -> int:
    problems: list[str] = []
    with open(args.file, encoding="utf-8", errors="surrogateescape") as fh:
        records = read_atlas(fh, problems)
    problems.extend(verify_atlas(records))
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"FAIL: {len(problems)} problem(s) in {len(records)} record(s)")
        return 1
    print(f"OK: {len(records)} record(s) verified")
    return 0


def _cmd_stats(args) -> int:
    with open(args.file, encoding="utf-8", errors="surrogateescape") as fh:
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
    ns = load_normalized(args.file)
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
    p.add_argument("--delta", type=_positive_int, required=True, help="determinant parameter (>= 1)")
    p.add_argument("--dim", type=_positive_int, required=True, help="ambient dimension (>= 1)")
    p.add_argument("--family", choices=["empty", "lattice", "both"], default="both")
    p.add_argument("--up-to", action="store_true", help="union the atlases for all delta' <= delta")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (default 1)")
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
    except (DeltaSimplexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
