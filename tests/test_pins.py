"""Pins on what must stay fixed across commits: canonical output and traced names.

The atlas bytes of the smoke cell and of both benchmark cells are compared
with the hashes recorded in the benchmark's reference file, so a change to
the canonical form, the dedup survivors or the record format shows up here
and not only in a benchmark run; runs at two and three jobs must write the
same bytes. The two cells where dedup does the most work are pinned by
hashes of their own, at one, two and three jobs, and the cheap cells of the
class-count table by their counts.
The benchmark's tracer wraps package functions by name from outside the
package; every name it lists must keep resolving.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from deltasimplex.atlas import enumerate_atlas, eq1_bound
from deltasimplex.atlas_cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The enumerate arguments of each cell in reference.json, as bench/run.py runs them.
CELLS = {
    "smoke-d3n4": ["--family", "both", "--delta", "3", "--dim", "4"],
    "both-d4n5": ["--family", "both", "--delta", "4", "--dim", "5"],
    "lattice-upto3-n8": ["--family", "lattice", "--up-to", "--delta", "3", "--dim", "8"],
}


def _atlas_bytes(tmp_path, cell, jobs=1):
    out = tmp_path / f"{cell}-jobs{jobs}.jsonl"
    assert main(["enumerate", *CELLS[cell], "--jobs", str(jobs), "--out", str(out)]) == 0
    return out.read_bytes()


def _assert_matches_reference(data, cell):
    reference = json.loads((BENCH / "reference.json").read_text())["atlases"][cell]
    assert hashlib.sha256(data).hexdigest() == reference["sha256"]
    assert len(data.splitlines()) == reference["classes"]


def test_smoke_atlas_matches_reference(tmp_path):
    _assert_matches_reference(_atlas_bytes(tmp_path, "smoke-d3n4"), "smoke-d3n4")


@pytest.mark.parametrize("cell", ["both-d4n5", "lattice-upto3-n8"])
def test_benchmark_atlas_matches_reference(tmp_path, cell):
    _assert_matches_reference(_atlas_bytes(tmp_path, cell), cell)


def test_atlas_bytes_do_not_depend_on_jobs(tmp_path):
    for cell in CELLS:
        serial = _atlas_bytes(tmp_path, cell, jobs=1)
        for jobs in (2, 3):
            assert _atlas_bytes(tmp_path, cell, jobs=jobs) == serial, (cell, jobs)


# The cells where dedup does the most work: (enumerate arguments, lines, sha256).
DEDUP_CELLS = {
    "both-d6n4": (
        ["--family", "both", "--delta", "6", "--dim", "4"],
        419,
        "46d118fe11811f78faf8be1db088665092dd0faccf8ebdb2be6559845a125e93",
    ),
    "empty-d10n3": (
        ["--family", "empty", "--delta", "10", "--dim", "3"],
        2072,
        "947bfd816feee7fb78cd7f800855c37b5ac816c0afdeae4620537c8df153f431",
    ),
}


@pytest.mark.parametrize("cell", ["both-d6n4", pytest.param("empty-d10n3", marks=pytest.mark.slow)])
def test_dedup_heavy_atlas_is_pinned(tmp_path, cell):
    """The atlas of a dedup-heavy cell keeps its bytes, at every job count.

    These bytes still hold ROADMAP item 1's known duplicates: classes that
    the search splits because `reduced_permutations` skips identity-block
    row orders. The change that completes the search replaces them with
    that item's fixed values, 384 lines and sha256 f9b2feb7... at (6, 4)
    both, and 1,929 lines and ba12740e... at (10, 3) empty.
    """
    args, lines, sha256 = DEDUP_CELLS[cell]
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"{cell}-jobs{jobs}.jsonl"
        assert main(["enumerate", *args, "--jobs", jobs, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert (len(data.splitlines()), hashlib.sha256(data).hexdigest()) == (lines, sha256), jobs


# Classes per (delta, n) as (empty, lattice) counts: the cheap cells of the
# class-count table, which no hash pin covers. The delta 3 empty counts
# equal ceil(3n / 2) for n = 1..10, an observation, not a theorem.
CLASS_COUNTS = {
    1: {n: (0, 1) for n in range(1, 11)},
    2: {n: (0, 0) for n in range(1, 11)},
    3: {n: (empty, 0) for n, empty in enumerate([2, 3, 5, 6, 8, 9, 11, 12, 14, 15], start=1)},
    4: {1: (4, 0), 2: (13, 0), 3: (24, 1)},
}


@pytest.mark.parametrize("delta", sorted(CLASS_COUNTS))
def test_class_counts_are_pinned(delta):
    """Each cell keeps its class counts, and each count is within `eq1_bound`.

    A completeness or soundness slip in generation, the record check or
    dedup moves a count in some cell, even where no atlas hash is pinned.
    """
    for n, expected in CLASS_COUNTS[delta].items():
        records = enumerate_atlas(delta, n)
        counts = tuple(sum(rec.family == family for rec in records) for family in ("empty", "lattice_empty"))
        assert counts == expected, (delta, n)
        assert max(counts) <= eq1_bound(delta, n), (delta, n)


# CLI runs whose class count is pinned: (enumerate arguments, lines). The
# first re-validates its atlas before writing it (--verify); the second is
# White's theorem through the closed-form lattice step, one class of empty
# lattice tetrahedra at each of delta 1, 4 and 9.
CLI_COUNTS = {
    "verify-d3n10": (["--delta", "3", "--dim", "10", "--verify"], 15),
    "lattice-upto9-n3": (["--family", "lattice", "--up-to", "--delta", "9", "--dim", "3"], 3),
}


@pytest.mark.parametrize("cell", list(CLI_COUNTS))
def test_cli_class_counts_are_pinned(capsys, cell):
    args, lines = CLI_COUNTS[cell]
    assert main(["enumerate", *args, "--out", "-"]) == 0
    out, err = capsys.readouterr()
    assert (len(out.splitlines()), err) == (lines, "")


def test_traced_names_resolve():
    tracer = _load_tracer()
    for mod_name, fn_name in tracer.TRACED:
        module = importlib.import_module(f"deltasimplex.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    for mod_name, attr, _label in tracer.CACHES:
        module = importlib.import_module(f"deltasimplex.{mod_name}")
        getattr(module, attr).cache_info()
