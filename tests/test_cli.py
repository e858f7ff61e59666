import contextlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
from bisect import bisect
from pathlib import Path

import pytest

import deltasimplex
from deltasimplex import system_to_dict
from deltasimplex.atlas import read_atlas, record_from_dict, record_to_dict
from deltasimplex.atlas_cli import main
from deltasimplex import (
    CandidateRecord,
    InequalitySystem,
    PreconditionError,
    canonical_key,
    enumerate_atlas,
    equivalent_normalized_set,
    key_tuple,
    normalize,
    normalized_to_dict,
    validate_simplex,
    write_atlas,
)


def run(args):
    return main(list(args))


def read_file(path):
    with path.open(encoding="utf-8") as fh:
        return read_atlas(fh)


def child_env():
    """The environment of a child interpreter that imports the package under test."""
    src = str(Path(deltasimplex.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def write_system(path, sys):
    path.write_text(json.dumps(system_to_dict(sys)))
    return str(path)


@pytest.fixture
def triangle_file(tmp_path, triangle):
    return write_system(tmp_path / "triangle.json", triangle)


def test_enumerate_delta_one(tmp_path):
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "1", "--dim", "4", "--family", "both", "--out", str(out)]) == 0
    records = read_file(out)
    assert len(records) == 1
    assert records[0].family == "lattice_empty"
    assert records[0].ns.c0 == 1


def test_enumerate_delta_two_empty(tmp_path):
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "2", "--dim", "2", "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_enumerate_delta_three_dim_one(tmp_path):
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "1", "--out", str(out)]) == 0
    records = read_file(out)
    assert len(records) == 2
    assert all(r.family == "empty" for r in records)


def test_enumerate_family_filter(tmp_path):
    out = tmp_path / "lattice.jsonl"
    assert run(["enumerate", "--delta", "4", "--dim", "3", "--family", "lattice", "--out", str(out)]) == 0
    records = read_file(out)
    assert len(records) == 1 and records[0].family == "lattice_empty"


def test_enumerate_up_to(tmp_path):
    out = tmp_path / "upto.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "1", "--up-to", "--out", str(out)]) == 0
    records = read_file(out)
    deltas = sorted(r.ns.delta for r in records)
    assert deltas == [1, 3, 3]


def test_enumerate_deterministic_and_parallel(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    assert run(["enumerate", "--delta", "3", "--dim", "3", "--jobs", "1", "--out", str(a)]) == 0
    assert run(["enumerate", "--delta", "3", "--dim", "3", "--jobs", "1", "--out", str(b)]) == 0
    assert run(["enumerate", "--delta", "3", "--dim", "3", "--jobs", "4", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_enumerate_with_verify(tmp_path):
    out = tmp_path / "v.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--verify", "--out", str(out)]) == 0


def test_check_equiv_same_file(triangle_file, capsys):
    assert run(["check-equiv", triangle_file, triangle_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is True
    assert payload["witness"]["U"] == [[1, 0], [0, 1]]
    assert payload["witness"]["x0"] == [0, 0]


def test_check_equiv_mapped_image(tmp_path, triangle, capsys):
    from deltasimplex import AffineUnimodularMap, apply_map

    moved = apply_map(triangle, AffineUnimodularMap(((1, 1), (0, 1)), (2, -1)))
    fa = write_system(tmp_path / "a.json", triangle)
    fb = write_system(tmp_path / "b.json", moved)
    assert run(["check-equiv", fa, fb]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equivalent"] is True


def test_check_equiv_mismatch(tmp_path, triangle, capsys):
    other = InequalitySystem(2, ((-1, 0), (0, -1), (3, 1)), (0, 0, 2))
    fa = write_system(tmp_path / "a.json", triangle)
    fb = write_system(tmp_path / "b.json", other)
    assert run(["check-equiv", fa, fb]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"equivalent": False, "certificate": "delta-mismatch"}


def test_check_equiv_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check-equiv", str(bad), str(bad)]) == 2


def test_check_equiv_accepts_normalized_input(tmp_path, capsys):
    from deltasimplex import NormalizedSystem

    ns = NormalizedSystem(n=1, s=0, k=1, H=((3,),), h=(2,), c=(-3,), c0=-1, delta=3)
    f = tmp_path / "ns.json"
    f.write_text(json.dumps(normalized_to_dict(ns)))
    assert run(["check-equiv", str(f), str(f)]) == 0


def test_check_equiv_reads_the_normalized_object_of_normalize(tmp_path, triangle_file, capsys):
    # Both input formats: the "normalized" object that normalize prints is a
    # normalized-v1 file, equivalent to the system-v1 file it came from.
    assert run(["normalize", triangle_file]) == 0
    normalized = tmp_path / "normalized.json"
    normalized.write_text(json.dumps(json.loads(capsys.readouterr().out)["normalized"]))
    assert run(["check-equiv", triangle_file, str(normalized)]) == 0
    assert capsys.readouterr().out == '{"equivalent": true, "witness": {"U": [[-1, 0], [0, -1]], "x0": [0, 0]}}\n'


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
@pytest.mark.parametrize(
    "sys_a, sys_b, status, printed",
    [
        # [1/3, 2/3] and [-1/3, 1/3] share delta and the |minor| multiset but
        # not the volume (3 against 6): the lattice invariant separates them.
        (
            InequalitySystem(1, ((3,), (-3,)), (2, -1)),
            InequalitySystem(1, ((3,), (-3,)), (1, 1)),
            1,
            '{"certificate": "invariant-mismatch", "equivalent": false}',
        ),
        # [1/5, 2/5] and [2/5, 3/5] share every invariant; only the search
        # tells them apart.
        (
            InequalitySystem(1, ((5,), (-5,)), (2, -1)),
            InequalitySystem(1, ((5,), (-5,)), (3, -2)),
            1,
            '{"certificate": "search-exhausted", "equivalent": false}',
        ),
        # Two triangles that share delta 3, the |minor| multiset, volume 3
        # and the facet pairs; only their edge lattice lengths differ.
        (
            InequalitySystem(2, ((-3, -1), (0, -1), (3, 2)), (0, -2, 3)),
            InequalitySystem(2, ((2, -1), (-3, 3), (1, -2)), (-3, 1, 3)),
            1,
            '{"certificate": "invariant-mismatch", "equivalent": false}',
        ),
        # The (2, 3)-triangle and its rows in order (1, 2, 0) have different
        # least-base keys, so the fast path misses and the search must reach
        # the other key; the witness is the identity.
        (
            InequalitySystem(2, ((-1, 0), (0, -1), (2, 3)), (0, 0, 1)),
            InequalitySystem(2, ((0, -1), (2, 3), (-1, 0)), (0, 1, 0)),
            0,
            '{"equivalent": true, "witness": {"U": [[1, 0], [0, 1]], "x0": [0, 0]}}',
        ),
    ],
    ids=["segments-volume", "segments-search", "triangles-edge-lengths", "triangle-rows-witness"],
)
def test_check_equiv_prints_one_line(tmp_path, capsys, sys_a, sys_b, status, printed, reverse):
    files = [write_system(tmp_path / "a.json", sys_a), write_system(tmp_path / "b.json", sys_b)]
    assert run(["check-equiv", *(files[::-1] if reverse else files)]) == status
    assert capsys.readouterr() == (printed + "\n", "")


def test_normalize_cli(triangle_file, capsys):
    assert run(["normalize", triangle_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normalized"]["H"] == [[1, 0], [0, 1]]
    assert payload["normalized"]["c"] == [-1, -1]
    assert payload["normalized"]["c0"] == 1
    assert payload["canonical_key"] == "2:1:1,0,0,0,1,0,-1,-1,1"
    assert payload["map"]["U"] == [[-1, 0], [0, -1]]


def test_normalize_cli_explicit_base(triangle_file, capsys):
    assert run(["normalize", triangle_file, "--base", "1,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normalized"]["delta"] == 1


def test_normalize_cli_bad_base(tmp_path, capsys):
    # The error names the given base and the valid ones in the 1-based
    # numbering of --base, in the option's own syntax.
    seg = InequalitySystem(1, ((-3,), (2,)), (-1, 1))
    f = write_system(tmp_path / "seg.json", seg)
    assert run(["normalize", f, "--base", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --base 2 does not attain the maximal minor; valid bases: 1\n"
    wide = write_system(tmp_path / "wide.json", InequalitySystem(2, ((-1, 0), (0, -1), (2, 3)), (0, 0, 1)))
    assert run(["normalize", wide, "--base", "1,2"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --base 1,2 does not attain the maximal minor; valid bases: 1,3\n"
    assert run(["normalize", wide, "--base", "3,1"]) == 0
    # Entries that are not integers get the malformed-base error, not int()'s.
    for bad in ("1,x", "", "1.0,3"):
        assert run(["normalize", wide, "--base", bad]) == 2
        assert capsys.readouterr().err == f"error: --base must be 2 distinct row indices in 1..3, got {bad!r}\n"


def test_normalize_cli_base_is_one_based(triangle_file, capsys):
    # Row 0 does not exist in the 1-based numbering of --base, and the
    # error names the 1-based range.
    assert run(["normalize", triangle_file, "--base", "0,1"]) == 2
    assert capsys.readouterr().err == "error: --base must be 2 distinct row indices in 1..3, got '0,1'\n"
    assert run(["normalize", triangle_file, "--base", "2,2"]) == 2
    assert "in 1..3" in capsys.readouterr().err
    assert run(["normalize", triangle_file, "--base", "2,3"]) == 0


def test_corner_cli(tmp_path, capsys):
    from deltasimplex import NormalizedSystem

    ns = NormalizedSystem(n=2, s=1, k=1, H=((1, 0), (1, 2)), h=(0, 1), c=(-1, -1), c0=-1, delta=2)
    f = tmp_path / "ns.json"
    f.write_text(json.dumps(normalized_to_dict(ns)))
    assert run(["corner", str(f)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["f_star"] == 0


def test_verify_ok(tmp_path):
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    assert run(["verify", str(out)]) == 0


def test_verify_corrupted_record(tmp_path, capsys):
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    data = json.loads(lines[0])
    data["c0"] -= 1  # hand corruption; the stored canonical key no longer matches
    lines[0] = json.dumps(data, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert "canonical key" in err or "violation" in err


def test_verify_reports_a_stale_canonical_key(tmp_path, capsys):
    # The system is valid and the keys ascend; only the stored key text is
    # wrong, which the atlas reader reports as a problem (exit 1), not an error.
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    data = json.loads(lines[1])
    data["canonical_key"] = "0:0:0"
    lines[1] = json.dumps(data, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"record 1: stored canonical key '0:0:0' does not match the system [provenance {data['provenance']}]"
    ]
    assert captured.out == f"FAIL: 1 problem(s) in {len(lines)} record(s)\n"


def test_verify_reports_an_unknown_family(tmp_path, capsys):
    # A family that is a JSON string but not a known one is a problem of the
    # atlas (exit 1), reported with its record; a non-string is an error (2).
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    data = json.loads(lines[0])
    data["family"] = "other"
    lines[0] = json.dumps(data, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"record 0 (key {data['canonical_key']}): unknown family 'other' [provenance {data['provenance']}]"
    ]


def test_verify_rejects_a_lattice_record_with_a_fractional_vertex(tmp_path, capsys):
    # The segment 2x <= 1, -x <= 1, i.e. [-1, 1/2], is in normal form and
    # holds n + 1 = 2 integer points, so the point count passes it; its
    # vertex 1/2 is not integral, which the record check reports.
    out = tmp_path / "atlas.jsonl"
    out.write_text(
        '{"format":"delta-simplex/atlas-v1","n":1,"s":0,"k":1,"delta":2,"H":[[2]],"h":[1],"c":[-1],"c0":1,'
        '"family":"lattice_empty","canonical_key":"1:2:2,1,-1,1","provenance":{}}\n'
    )
    assert run(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "record 0 (key 1:2:2,1,-1,1): lattice_empty record has a fractional vertex [provenance {}]\n"
    assert captured.out == "FAIL: 1 problem(s) in 1 record(s)\n"


def test_verify_detects_emptiness_violation(tmp_path, capsys):
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "1", "--dim", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text().strip())
    # widen the simplex so it gains interior points but keep the key consistent
    data["c0"] = 2
    rec = record_from_dict(data)
    from deltasimplex import canonical_key

    data["canonical_key"] = canonical_key(rec.ns)
    out.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    assert run(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert "violation" in err


def test_verify_counts_points_above_dimension_six(tmp_path, capsys):
    # The point-count oracle runs in every dimension: a widened n = 7 record
    # (0 <= -x, -sum x <= 2 holds 36 integer points) is flagged.
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "1", "--dim", "7", "--out", str(out)]) == 0
    data = json.loads(out.read_text().strip())
    assert (data["n"], data["family"], data["c0"]) == (7, "lattice_empty", 1)
    data["c0"] = 2
    rec = record_from_dict(data)
    from deltasimplex import canonical_key

    data["canonical_key"] = canonical_key(rec.ns)
    out.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    assert run(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"record 0 (key {data['canonical_key']}): emptiness/validator violation: 36 integer points, "
        f"expected 8 [provenance {data['provenance']}]"
    ]


def test_verify_reports_an_unchecked_emptiness(tmp_path, capsys):
    # A valid normalized segment whose bounding box (10^8 + 1 points) exceeds
    # the oracle's cap is reported, not passed unchecked.
    from deltasimplex import CandidateRecord, NormalizedSystem, write_atlas

    ns = NormalizedSystem(n=1, s=0, k=1, H=((2,),), h=(1,), c=(-1,), c0=10**8, delta=2)
    out = tmp_path / "atlas.jsonl"
    with out.open("w") as fh:
        write_atlas([CandidateRecord(ns, "empty", {})], fh)
    assert run(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "record 0 (key 1:2:2,1,-1,100000000): emptiness not checked: "
        "oracle scale exceeded: 100000001 candidates > cap 10000000 [provenance {}]"
    ]
    assert captured.out == "FAIL: 1 problem(s) in 1 record(s)\n"


def test_verify_passes_the_atlas_enumerate_writes(tmp_path, capsys):
    # enumerate | verify on the (4, 4) both atlas: every record passes its
    # check, and no pair that shares a class invariant is equivalent. Of its
    # 39 records, two are one class that the incomplete search splits
    # (ROADMAP item 1); the complete search makes this count 38.
    assert run(["enumerate", "--family", "both", "--delta", "4", "--dim", "4"]) == 0
    out = tmp_path / "d4n4.jsonl"
    out.write_text(capsys.readouterr().out)
    assert run(["verify", str(out)]) == 0
    assert capsys.readouterr() == ("OK: 39 record(s) verified\n", "")


def _twin_of_the_first_record(records):
    # The first record and its second searched form.
    forms = [ns for ns, _ in equivalent_normalized_set(records[0].system()).records.values()]
    assert len(forms) == 2 and forms[0] == records[0].ns
    return records[0], forms[1]


def _second_form(rec):
    """`rec`'s form at the least maximal base that gives another key, or None."""
    sys = rec.system()
    for base in sorted(validate_simplex(sys).max_det_bases):
        ns, _, _ = normalize(sys, base)
        if ns != rec.ns:
            return ns
    return None


def _late_twin(rank):
    """Pick the (record, second form) pair of rank `rank`, 0 for the last record, among those past index 2.

    Only records whose second form sorts past index 2 count, so a sample of
    pairs in file order that searches only the first few records never
    meets the twin.
    """

    def pick(records):
        keys = [key_tuple(rec.ns) for rec in records]
        late = [(rec, ns) for rec in reversed(records) if (ns := _second_form(rec)) and bisect(keys, key_tuple(ns)) > 2]
        return late[rank]

    return pick


@pytest.mark.parametrize(
    "delta, dim, family, pick_twin",
    [
        (3, 2, "both", _twin_of_the_first_record),
        (4, 4, "both", _late_twin(0)),
        pytest.param(
            4, 4, "both", _late_twin(1),
            marks=pytest.mark.xfail(
                strict=True, reason="ROADMAP item 1: the twin sorts first, and its search misses the record's key"
            ),
        ),
    ],
    ids=["d3n2-first-record", "d4n4-last-late-twin", "d4n4-second-last-late-twin"],
)
def test_verify_rejects_equivalent_records(tmp_path, capsys, delta, dim, family, pick_twin):
    # Each record is valid and the keys ascend; only the pairwise
    # inequivalence check can see that two records are one class.
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", str(delta), "--dim", str(dim), "--family", family, "--out", str(out)]) == 0
    records = read_file(out)
    rec, form = pick_twin(records)
    assert key_tuple(form) not in {key_tuple(r.ns) for r in records}
    with out.open("w") as fh:
        write_atlas(sorted(records + [CandidateRecord(form, rec.family, {})], key=lambda r: key_tuple(r.ns)), fh)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    first, second = sorted([rec.ns, form], key=key_tuple)
    assert capsys.readouterr().err == (
        f"records with keys {canonical_key(first)} and {canonical_key(second)} are unimodular equivalent\n"
    )


@pytest.mark.parametrize("sample", [0, 1, 5, 40, 1_000_000])
def test_verify_pair_sample_agrees_with_check_equivalence(sample):
    # verify looks a later record's key up in an earlier record's class keys
    # when the two share the class invariant. Over the first `sample`
    # same-(n, delta) pairs in file order, it must flag exactly the pairs that
    # check_equivalence calls equivalent; a sample past the last pair covers
    # all pairs, and then verify must flag nothing else.
    import random

    from deltasimplex import check_equivalence
    from deltasimplex.atlas import verify_atlas

    records = enumerate_atlas(4, 3, "both")
    rng = random.Random(7)
    for position in [1, None, None, None, None]:  # the first twin makes pair 0 equivalent
        rec = records[0] if position else rng.choice(records)
        forms = [ns for ns, _ in equivalent_normalized_set(rec.system()).records.values()]
        twin = CandidateRecord(forms[-1], rec.family, {})
        records.insert(position or rng.randrange(len(records) + 1), twin)
    pairs = [
        (a, b)
        for i, a in enumerate(records)
        for b in records[i + 1 :]
        if (a.ns.n, a.ns.delta) == (b.ns.n, b.ns.delta)
    ][:sample]
    messages = {
        f"records with keys {canonical_key(a.ns)} and {canonical_key(b.ns)} are unimodular equivalent": (a, b)
        for a, b in pairs
    }
    expected = [m for m, (a, b) in messages.items() if check_equivalence(a.system(), b.system()).equivalent]
    found = [p for p in verify_atlas(records) if p.endswith("unimodular equivalent")]
    assert found  # verify searches every pair that can be equivalent, whatever the sample
    assert sorted(m for m in found if m in messages) == sorted(expected)
    if len(pairs) < sample:
        assert sorted(found) == sorted(expected)


@pytest.mark.parametrize(
    "reshuffle, message",
    [
        (lambda lines: lines + lines[-1:], "duplicate canonical key"),
        (lambda lines: lines[-1:] + lines[:-1], "out of ascending order"),
    ],
    ids=["last-line-repeated", "last-line-first"],
)
def test_verify_rejects_unsorted_atlas(tmp_path, capsys, reshuffle, message):
    # Every record is valid on its own; only the file order breaks the contract.
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    out.write_text("\n".join(reshuffle(lines)) + "\n")
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out.startswith("FAIL")


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_enumerate_rejects_jobs_below_one(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", "--delta", "1", "--dim", "1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [0, -1])
def test_enumerate_atlas_rejects_jobs_below_one(jobs):
    with pytest.raises(PreconditionError):
        enumerate_atlas(1, 1, jobs=jobs)


@pytest.mark.parametrize(
    "delta, dim, flag", [("0", "2", "--delta"), ("-2", "2", "--delta"), ("2", "0", "--dim"), ("2", "-1", "--dim")]
)
@pytest.mark.parametrize("up_to", [[], ["--up-to"]])
def test_enumerate_rejects_delta_and_dim_below_one(delta, dim, flag, up_to, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["enumerate", "--delta", delta, "--dim", dim, *up_to])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


@pytest.mark.parametrize("delta, dim", [(0, 2), (-2, 2), (2, 0), (2, -1)])
@pytest.mark.parametrize("up_to", [False, True])
def test_enumerate_atlas_rejects_delta_and_dim_below_one(delta, dim, up_to, monkeypatch):
    # The check runs before any cell is built: with --up-to, a delta below 1
    # used to give an empty range of cells and so an empty atlas.
    from deltasimplex import atlas

    monkeypatch.setattr(atlas, "enumerate_H", lambda *a: pytest.fail("a cell was built"))
    with pytest.raises(PreconditionError, match="must be at least 1"):
        enumerate_atlas(delta, dim, up_to=up_to)


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child that `os.fork` starts in this process from now on."""
    real_fork = os.fork
    pids = []

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs longer than `seconds` (a hang fails, and does not stall the run)."""

    def expire(*_):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_enumerate_atlas_starts_one_pool_per_call(forks):
    # With --up-to, delta' = 1 has one block and delta' = 2, 3 have four each:
    # the nine blocks form one task list, striped over this process and one
    # forked child. Their one candidate is one dedup shard, which forks
    # nothing, and so does a call with no multi-block delta'.
    parallel = enumerate_atlas(3, 4, "lattice", up_to=True, jobs=2)
    assert len(forks) == 1
    assert parallel == enumerate_atlas(3, 4, "lattice", up_to=True, jobs=1)
    assert len(forks) == 1
    enumerate_atlas(1, 4, "lattice", up_to=True, jobs=2)
    assert len(forks) == 1
    assert_no_child_left()


def test_pool_has_no_more_workers_than_blocks(forks):
    # (3, 3) has 6 blocks, so --jobs 64 forks 5 children, not 63, and --jobs 2
    # forks one; this process runs the first stripe itself.
    from deltasimplex.atlas import candidate_records
    from deltasimplex.enumeration import enumerate_H

    serial = candidate_records(3, 3, jobs=1)
    assert forks == []
    counts = []
    for jobs in (64, 2):
        parallel = candidate_records(3, 3, jobs=jobs)
        assert [(r.ns, r.family, r.provenance) for r in parallel] == [(r.ns, r.family, r.provenance) for r in serial]
        counts.append(len(forks))
        del forks[:]
    assert counts == [len(list(enumerate_H(3, 3))) - 1, 1] == [5, 1]
    assert_no_child_left()


def test_a_block_that_fails_in_a_child_raises_the_serial_error(monkeypatch, forks):
    # The six (3, 3) blocks have b_index 0..5, their task indices. Blocks 1
    # and 4 raise: at --jobs 2 block 1 fails in the child and block 4 in this
    # process, and at --jobs 3 both lie in one child's stripe, which stops at
    # block 1. The error of the least index, block 1's, is the one a serial
    # map raises.
    from deltasimplex import atlas
    from deltasimplex.errors import InvariantViolation

    real = atlas.candidates_for_block

    def failing(block, *flags):
        if block.b_index in (1, 4):
            raise InvariantViolation(f"block {block.b_index} failed")
        return real(block, *flags)

    monkeypatch.setattr(atlas, "candidates_for_block", failing)
    errors = []
    for jobs in (1, 2, 3):
        with deadline(60), pytest.raises(InvariantViolation) as exc:
            atlas.candidate_records(3, 3, jobs=jobs)
        errors.append((type(exc.value), str(exc.value)))
    assert errors == [(InvariantViolation, "block 1 failed")] * 3
    assert len(forks) == 1 + 2
    assert_no_child_left()


def test_a_child_that_dies_mid_stripe_is_an_error_not_a_hang(monkeypatch, capsys, forks):
    # At --jobs 2 the child runs blocks 1, 3 and 5 of (3, 3), and exits on
    # block 3 without sending anything; the CLI reports it as an error.
    from deltasimplex import atlas

    real = atlas.candidates_for_block
    parent = os.getpid()

    def dying(block, *flags):
        if block.b_index == 3:
            assert os.getpid() != parent, "block 3 ran in the parent"
            os._exit(3)
        return real(block, *flags)

    monkeypatch.setattr(atlas, "candidates_for_block", dying)
    with deadline(60), pytest.raises(ChildProcessError, match="ended with exit code 3 before sending its results"):
        atlas.candidate_records(3, 3, jobs=2)
    with deadline(60):
        assert run(["enumerate", "--delta", "3", "--dim", "3", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: worker process \d+ ended with exit code 3 before sending its results\n", err)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("unsafe", ["no-fork", "other-thread"])
def test_without_a_safe_fork_the_map_runs_in_process(monkeypatch, forks, unsafe):
    # Where `os.fork` does not exist, or while another thread runs (a fork
    # copies only the calling thread), --jobs forks nothing and only names an
    # upper bound.
    from deltasimplex.atlas import candidate_records

    serial = candidate_records(4, 3, jobs=1)
    expected = enumerate_atlas(4, 3, jobs=1)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    if unsafe == "no-fork":
        monkeypatch.delattr(os, "fork")
    else:
        waiter.start()
    try:
        parallel = candidate_records(4, 3, jobs=2)
        assert enumerate_atlas(4, 3, jobs=3) == expected
    finally:
        release.set()
        if waiter.is_alive():
            waiter.join(timeout=60)
    assert not waiter.is_alive()
    assert [(r.ns, r.family, r.provenance) for r in parallel] == [(r.ns, r.family, r.provenance) for r in serial]
    assert forks == []


def test_sharded_dedup_raises_the_serial_error(monkeypatch, forks):
    # Two records of the (3, 4) empty candidates get an unknown family: the
    # least of the second shard (shards in order of their least keys), and
    # the last survivor of the first shard, which its walk reaches after the
    # second shard's failing key. The first shard is the largest, so it is
    # packed into bin 0 at every --jobs, and the map's rule, the failure of
    # the least task index, would raise the later key's error. The serial
    # walk fails at the second shard's key, and so must every --jobs.
    from deltasimplex import atlas
    from deltasimplex.errors import InvariantViolation

    shards: dict = {}  # shard key -> its candidates in key order, shards in order of their least keys
    for rec in sorted(atlas.candidate_records(3, 4, "empty"), key=lambda rec: key_tuple(rec.ns)):
        shards.setdefault(atlas._shard_key(rec.ns), []).append(rec)
    first, second, *rest = shards.values()
    survivors = enumerate_atlas(3, 4, "empty")
    late = [rec for rec in first if rec in survivors][-1]
    assert all(len(first) > len(shard) for shard in [second, *rest]) and key_tuple(second[0].ns) < key_tuple(late.ns)
    bad = {key_tuple(second[0].ns), key_tuple(late.ns)}
    real = atlas.candidates_for_block

    def corrupting(block, *flags):
        empties, lattices = real(block, *flags)
        return [rec._replace(family="bogus") if key_tuple(rec.ns) in bad else rec for rec in empties], lattices

    monkeypatch.setattr(atlas, "candidates_for_block", corrupting)
    messages = []
    for jobs in (1, 2, 3):
        with deadline(60), pytest.raises(InvariantViolation) as exc:
            enumerate_atlas(3, 4, "empty", jobs=jobs)
        messages.append(str(exc.value))
    assert len(forks) == 2 * (1 + 2)  # a generation map and a dedup map at each of --jobs 2 and 3
    assert messages == [messages[0]] * 3
    assert messages[0].startswith(f"record {canonical_key(second[0].ns)}: unknown family 'bogus' [provenance")
    assert_no_child_left()


def test_cli_import_leaves_out_multiprocessing():
    # No path of the package imports multiprocessing: --jobs forks its workers.
    code = "import sys, deltasimplex.atlas_cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# Modules that no CLI path runs: `dataclasses` (with `inspect`), `logging`,
# `fractions` (with `decimal`), and `multiprocessing` (`--jobs` forks).
# Only modules the package loads count: some interpreters load `inspect`
# at start-up.
HEAVY_MODULES = ("dataclasses", "inspect", "logging", "fractions", "decimal", "multiprocessing")


ENUMERATE_3_3 = "atlas_cli.main(['enumerate', '--delta', '3', '--dim', '3', '--jobs', '1', '--out', sys.argv[1]])"

# The two calls the benchmark's query client times. The (2, 3)-triangle
# against its rows in order (1, 2, 0): the fast path misses, so the search
# runs and the witness is checked.
QUERY = (
    "from deltasimplex import InequalitySystem, check_equivalence, normalize\n"
    "s = InequalitySystem(2, ((-1, 0), (0, -1), (2, 3)), (0, 0, 1))\n"
    "t = InequalitySystem(2, ((0, -1), (2, 3), (-1, 0)), (0, 1, 0))\n"
    "print(check_equivalence(s, t).equivalent, normalize(t, (1, 2))[0].delta)"
)


@pytest.mark.parametrize(
    "run_cli, printed",
    [
        ("", ""),
        (ENUMERATE_3_3, ""),
        (ENUMERATE_3_3.replace("'--jobs', '1'", "'--jobs', '2'"), ""),
        (f"{ENUMERATE_3_3}\natlas_cli.main(['verify', sys.argv[1]])", "OK: 5 record(s) verified\n"),
        (QUERY, "True 3\n"),
    ],
    ids=["import", "enumerate", "enumerate-jobs2", "verify", "query"],
)
def test_cli_start_up_imports_only_what_it_runs(tmp_path, run_cli, printed):
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from deltasimplex import atlas_cli\n"
        f"{run_cli}\n"
        f"print([m for m in {HEAVY_MODULES!r} if m in sys.modules and m not in before])"
    )
    out = tmp_path / "atlas.jsonl"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out)], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{printed}[]\n", "")
    if "'enumerate'" in run_cli:
        assert len(read_file(out)) > 0


def test_readme_library_example_prints_the_key_in_its_comment(tmp_path):
    # The first python block under "## Library" in README.md, run in a child
    # interpreter outside the checkout, prints the canonical key that its
    # comment names, so the documented API cannot drift from the code.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    library = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    expected = re.search(r"print\(canonical_key\(ns\)\)\s*# '([^']*)'", block).group(1)
    assert expected == "2:1:1,0,0,0,1,0,-1,-1,1"
    proc = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected + "\n", "")


def test_stats_output(tmp_path, capsys):
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    assert run(["stats", str(out)]) == 0
    text = capsys.readouterr().out
    assert "delta=3 n=2 family=empty count=3" in text
    assert "bound=" in text


def test_record_round_trip(atlas_cache):
    for rec in atlas_cache(3, 2) + atlas_cache(4, 3):
        assert record_from_dict(record_to_dict(rec)) == rec


def test_stdout_output(capsys):
    assert run(["enumerate", "--delta", "1", "--dim", "1", "--out", "-"]) == 0
    out = capsys.readouterr().out.strip()
    assert json.loads(out)["family"] == "lattice_empty"


def test_unwritable_output():
    assert run(["enumerate", "--delta", "1", "--dim", "1", "--out", "/nonexistent/dir/x.jsonl"]) == 2


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda d: d.pop("b"), id="missing-key"),
        pytest.param(lambda d: d["b"].__setitem__(2, 1.7), id="float-entry"),
        pytest.param(lambda d: d["b"].__setitem__(2, "1"), id="string-entry"),
        pytest.param(lambda d: d["b"].__setitem__(2, True), id="bool-entry"),
    ],
)
def test_check_equiv_rejects_malformed_system(tmp_path, triangle, triangle_file, mutate, capsys):
    # A malformed input is a usage error (exit 2), never "not equivalent" (1)
    # and never a silently truncated system compared against itself (0).
    data = system_to_dict(triangle)
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["check-equiv", triangle_file, str(bad)]) == 2
    assert run(["check-equiv", str(bad), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda d: d.pop("c0"), id="missing-key"),
        pytest.param(lambda d: d.pop("family"), id="missing-family"),
        pytest.param(lambda d: d["H"][0].__setitem__(0, 1.0), id="float-entry"),
        pytest.param(lambda d: d.__setitem__("delta", 3.5), id="float-scalar"),
        pytest.param(lambda d: d.__setitem__("provenance", 5), id="provenance-not-object"),
    ],
)
def test_verify_rejects_malformed_record(tmp_path, mutate, capsys):
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    data = json.loads(lines[0])
    mutate(data)
    lines[0] = json.dumps(data, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_object_input_exits_2(tmp_path, triangle_file):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert run(["check-equiv", triangle_file, str(bad)]) == 2
    assert run(["verify", str(bad)]) == 2


def test_corner_rejects_non_object_input(tmp_path):
    # A JSON list is not a normalized system: `corner` reports it on one
    # `error:` line and exits 2, as every other subcommand does, with no
    # traceback.
    bad = tmp_path / "f.json"
    bad.write_text("[1, 2]")
    proc = subprocess.run(
        [sys.executable, "-m", "deltasimplex.atlas_cli", "corner", str(bad)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("command", ["verify", "stats"])
@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda d: d.update(n=0, s=0, k=0, H=[], h=[], c=[], c0=1, delta=1), id="dimension-0"),
        pytest.param(lambda d: d.__setitem__("family", ["x"]), id="family-list"),
        pytest.param(lambda d: d.__setitem__("family", 7), id="family-int"),
        pytest.param(lambda d: d.update(s=-1, k=d["n"] + 1), id="s-negative"),
        pytest.param(lambda d: d.update(s=d["n"] + 1, k=-1), id="k-negative"),
    ],
)
def test_malformed_record_is_one_error_line(tmp_path, command, mutate):
    # A record that no normalized system can have, or a family that is not a
    # JSON string, is an input error: exit 2 with one `error:` line, never a
    # traceback (exit 1 means problems found or a bound exceeded).
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text().splitlines()[0])
    mutate(data)
    out.write_text(json.dumps(data) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "deltasimplex.atlas_cli", command, str(out)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["verify", "stats"])
@pytest.mark.parametrize(
    "last_line, message",
    [
        pytest.param(
            b'{"format": "delta-simplex/atlas-v1", "n": 2', "line {} column 44: Expecting ',' delimiter", id="truncated"
        ),
        pytest.param(b'{"format": "delta-simplex/atlas-v1", "n": 2}', "line {}: input is missing the key 's'", id="missing-key"),
        pytest.param(
            b"\xff\xfe garbage",
            "line {}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            id="not-utf8",
        ),
    ],
)
def test_atlas_input_error_names_its_line(tmp_path, capsys, command, last_line, message):
    # A line that is not UTF-8, not JSON or not a record is an input error
    # (exit 2) whose message starts with the 1-based line of the file, blank
    # lines counted, and for invalid JSON the 1-based column in that line; a
    # byte that is not UTF-8 is placed in its line, not in a read chunk.
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    out.write_bytes(("\n".join(lines) + "\n").encode() + last_line + b"\n")
    capsys.readouterr()
    assert run([command, str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(4)}\n")
    out.write_bytes(("\n".join(lines[:1] + [""] + lines[1:]) + "\n").encode() + last_line + b"\n")
    assert run([command, str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(5)}\n")


def test_atlas_json_error_names_the_column_of_its_line(tmp_path, capsys):
    # The position of a JSON error is the file's: the line and the column in
    # that line, not the decoder's "line 1 column C (char C-1)" of the record
    # alone. A record cut inside a string on the 3rd line, and the same line
    # indented by two blanks, which move the column by two.
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    for indent, column in (("", 40), ("  ", 42)):
        out.write_text("\n".join(lines[:2] + [indent + lines[2][:40]]) + "\n")
        capsys.readouterr()
        assert run(["verify", str(out)]) == 2
        assert capsys.readouterr().err == f"error: line 3 column {column}: Unterminated string starting at\n"


def test_stats_rejects_delta_below_one(tmp_path, capsys):
    # The class-count bound is defined for delta >= 1 only; a delta-0 record
    # is an input error that names delta (verify reports it as a validator
    # problem instead).
    from deltasimplex import eq1_bound

    with pytest.raises(PreconditionError, match="delta must be at least 1, got 0"):
        eq1_bound(0, 2)
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text().splitlines()[0])
    data["delta"] = 0
    out.write_text(json.dumps(data) + "\n")
    capsys.readouterr()
    assert run(["stats", str(out)]) == 2
    assert capsys.readouterr().err == "error: delta must be at least 1, got 0\n"


def test_stats_prints_a_bound_past_the_float_range_as_inf(tmp_path, capsys, atlas_cache):
    # delta ** (log2(delta) + 2) overflows a float from delta = 2^32 on, and
    # so does a binomial past the float range: the bound is then inf, which
    # stats prints and no count exceeds.
    from deltasimplex import eq1_bound

    assert eq1_bound(2**32, 4) == eq1_bound(2**31, 4) == eq1_bound(2, 10**400) == math.inf
    assert math.isfinite(eq1_bound(2**16, 4))
    data = record_to_dict(next(rec for rec in atlas_cache(4, 4) if rec.family == "empty"))
    data["delta"] = 8589934592
    out = tmp_path / "atlas.jsonl"
    out.write_text(json.dumps(data) + "\n")
    assert run(["stats", str(out)]) == 0
    assert capsys.readouterr() == ("delta=8589934592 n=4 family=empty count=1 bound=inf\ntotal=1\n", "")


TRUNCATED = (b'{"format": ', "{path}: line 1 column 12: Expecting value")
NOT_UTF8 = (b"\xff\xfe{}", "{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")


@pytest.mark.parametrize(
    "command, content, message",
    [
        ("check-equiv", b"[1, 2]", "{path}: expected a JSON object"),
        ("check-equiv", b'{"format": "x"}', "unsupported input format 'x'"),
        ("normalize", b"[1, 2]", "{path}: expected a JSON object"),
        ("normalize", b'{"format": "x"}', "unsupported input format 'x'"),
        ("corner", b"[1, 2]", "{path}: expected a JSON object"),
        ("corner", b'{"format": "x"}', "expected format 'delta-simplex/normalized-v1', got 'x'"),
        *[(command, *error) for error in (TRUNCATED, NOT_UTF8) for command in ("check-equiv", "normalize", "corner")],
    ],
    ids=[
        "check-equiv-list", "check-equiv-format", "normalize-list", "normalize-format", "corner-list", "corner-format",
        "check-equiv-truncated", "normalize-truncated", "corner-truncated",
        "check-equiv-not-utf8", "normalize-not-utf8", "corner-not-utf8",
    ],
)
def test_input_errors_keep_their_messages(tmp_path, capsys, triangle_file, command, content, message):
    # A JSON or UTF-8 error names the file, so a check-equiv user can tell
    # which of the two inputs is bad, and gives its position in that file.
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    args = [command, triangle_file, str(bad)] if command == "check-equiv" else [command, str(bad)]
    assert run(args) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=bad)}\n"


@pytest.mark.parametrize(
    "reader, message",
    [
        ("system_from_dict", "a system must be a JSON object"),
        ("normalized_from_dict", "a normalized system must be a JSON object"),
        ("record_from_dict", "an atlas record must be a JSON object"),
    ],
    ids=["system", "normalized", "record"],
)
def test_readers_reject_a_non_object(reader, message):
    with pytest.raises(PreconditionError, match=message):
        getattr(deltasimplex, reader)([1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda data: record_from_dict({**data, "provenance": [1]}), r"provenance must be a JSON object, got \[1\]"),
        (lambda data: record_from_dict({**data, "family": 7}), "family must be a JSON string, got 7"),
        (lambda data: enumerate_atlas(1, 1, "other"), "unknown family 'other'"),
    ],
    ids=["provenance-not-object", "family-not-string", "unknown-family"],
)
def test_input_errors_are_precondition_errors(call, message, atlas_cache):
    # Every reader and argument check raises PreconditionError, a caller's
    # violated precondition; the CLI catches its base class either way.
    data = record_to_dict(atlas_cache(1, 1)[0])
    with pytest.raises(PreconditionError, match=message):
        call(data)


@pytest.mark.parametrize(
    "delta, dim, family, up_to", [(4, 5, "both", False), (3, 8, "lattice", True)], ids=["both-d4n5", "lattice-upto3-n8"]
)
def test_block_walk_is_the_same_at_two_job_counts(delta, dim, family, up_to):
    # The pool only partitions the blocks: the candidate stream before dedup
    # is the same list, in the same order and with the same provenance.
    from deltasimplex.atlas import candidate_records

    serial = candidate_records(delta, dim, family, up_to, jobs=1)
    parallel = candidate_records(delta, dim, family, up_to, jobs=2)
    assert [(r.ns, r.family, r.provenance) for r in parallel] == [(r.ns, r.family, r.provenance) for r in serial]
    assert serial


def test_module_entry_point_is_warning_free(tmp_path):
    # The package must not import its CLI module: `python -m` would then find
    # it in sys.modules before running it, and runpy warns (an error here).
    out = tmp_path / "atlas.jsonl"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "deltasimplex.atlas_cli",
         "enumerate", "--delta", "1", "--dim", "1", "--out", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(read_file(out)) == 1


def test_verify_validates_each_simplex_once(monkeypatch):
    # verify_atlas hands the simplex its record check validated to the
    # point-count oracle.
    from deltasimplex import atlas, enumeration, simplex_model

    records = enumerate_atlas(3, 3, "both")
    calls = {"validate": 0}
    validate = simplex_model.validate_simplex

    def counting(sys):
        calls["validate"] += 1
        return validate(sys)

    for mod in (enumeration, simplex_model):
        monkeypatch.setattr(mod, "validate_simplex", counting)
    assert atlas.verify_atlas(records) == []
    assert calls["validate"] == len(records) > 0


@pytest.mark.parametrize(
    "delta, dim, family, up_to",
    [(4, 4, "both", False), (4, 5, "both", False), (3, 8, "lattice", True)],
    ids=["both-d4n4", "both-d4n5", "lattice-upto3-n8"],
)
def test_verify_searches_only_records_that_share_the_invariant(monkeypatch, delta, dim, family, up_to):
    # A record is searched, once, iff a later record shares its class
    # invariant; the search reuses its record check's meta, so each simplex
    # is still validated once.
    from deltasimplex import atlas, enumeration, simplex_model
    from deltasimplex.equivalence import _lattice_invariant

    records = enumerate_atlas(delta, dim, family, up_to)
    systems = [rec.system() for rec in records]
    invariants = [_lattice_invariant(sys, validate_simplex(sys)) for sys in systems]
    shared = [sys for i, sys in enumerate(systems) if invariants[i] in invariants[i + 1 :]]
    searched, calls = [], {"validate": 0}
    class_keys, validate = atlas.class_keys, simplex_model.validate_simplex

    def counting(sys):
        calls["validate"] += 1
        return validate(sys)

    monkeypatch.setattr(atlas, "class_keys", lambda prim, meta: searched.append(prim) or class_keys(prim, meta))
    for mod in (enumeration, simplex_model):
        monkeypatch.setattr(mod, "validate_simplex", counting)
    assert atlas.verify_atlas(records) == []
    assert sorted(searched) == sorted(shared)
    assert calls["validate"] == len(records)
