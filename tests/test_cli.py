import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltasimplex
from deltasimplex import system_to_dict
from deltasimplex.atlas import read_atlas, record_from_dict, record_to_dict
from deltasimplex.atlas_cli import main
from deltasimplex import InequalitySystem, PreconditionError, enumerate_atlas, normalized_to_dict


def run(args):
    return main(list(args))


def read_file(path):
    with path.open(encoding="utf-8") as fh:
        return read_atlas(fh)


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
    seg = InequalitySystem(1, ((-3,), (2,)), (-1, 1))
    f = write_system(tmp_path / "seg.json", seg)
    assert run(["normalize", f, "--base", "2"]) == 2
    err = capsys.readouterr().err
    assert "valid bases" in err


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


def test_verify_rejects_equivalent_records(tmp_path, capsys):
    # Each record is valid and the keys ascend; only the pairwise
    # inequivalence check can see that two records are one class.
    from deltasimplex import CandidateRecord, equivalent_normalized_set, key_tuple, write_atlas

    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "3", "--dim", "2", "--out", str(out)]) == 0
    records = read_file(out)
    forms = [ns for ns, _ in equivalent_normalized_set(records[0].system()).records.values()]
    assert len(forms) == 2 and forms[0] == records[0].ns
    twin = CandidateRecord(forms[1], records[0].family, {})
    with out.open("w") as fh:
        write_atlas(sorted(records + [twin], key=lambda rec: key_tuple(rec.ns)), fh)
    capsys.readouterr()
    assert run(["verify", str(out)]) == 1
    assert "unimodular equivalent" in capsys.readouterr().err


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


def test_enumerate_atlas_starts_one_pool_per_call(monkeypatch):
    # With --up-to, delta' = 1 has one block and delta' = 2, 3 have four each:
    # one pool serves both, and a call with no multi-block delta' starts none.
    import multiprocessing

    pools = {"count": 0}
    real_pool = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        pools["count"] += 1
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    parallel = enumerate_atlas(3, 4, "lattice", up_to=True, jobs=2)
    assert pools["count"] == 1
    assert parallel == enumerate_atlas(3, 4, "lattice", up_to=True, jobs=1)
    assert pools["count"] == 1
    enumerate_atlas(1, 4, "lattice", up_to=True, jobs=2)
    assert pools["count"] == 1


def test_cli_import_leaves_out_multiprocessing():
    # enumerate_atlas imports multiprocessing only when it starts a pool.
    src = str(Path(deltasimplex.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, deltasimplex.atlas_cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


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
    src = str(Path(deltasimplex.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    bad = tmp_path / "f.json"
    bad.write_text("[1, 2]")
    proc = subprocess.run(
        [sys.executable, "-m", "deltasimplex.atlas_cli", "corner", str(bad)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_module_entry_point_is_warning_free(tmp_path):
    # The package must not import its CLI module: `python -m` would then find
    # it in sys.modules before running it, and runpy warns (an error here).
    src = str(Path(deltasimplex.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "atlas.jsonl"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "deltasimplex.atlas_cli",
         "enumerate", "--delta", "1", "--dim", "1", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(read_file(out)) == 1


def test_verify_validates_each_simplex_once(monkeypatch):
    # verify_atlas hands its validated simplex to the point-count oracle.
    from deltasimplex import atlas, simplex_model

    calls = {"validate": 0}
    validate = simplex_model.validate_simplex

    def counting(sys):
        calls["validate"] += 1
        return validate(sys)

    for mod in (atlas, simplex_model):
        monkeypatch.setattr(mod, "validate_simplex", counting)
    records = enumerate_atlas(3, 3, "both")
    assert atlas.verify_atlas(records, max_pairs=0) == []
    assert calls["validate"] == len(records) > 0


def test_verify_rejects_negative_max_pairs(tmp_path, capsys):
    # A negative cap used to skip the pair check and still print OK.
    out = tmp_path / "atlas.jsonl"
    assert run(["enumerate", "--delta", "2", "--dim", "2", "--out", str(out)]) == 0
    assert run(["verify", str(out), "--max-pairs", "0"]) == 0
    capsys.readouterr()
    assert run(["verify", str(out), "--max-pairs", "-3"]) == 2
    captured = capsys.readouterr()
    assert "max_pairs" in captured.err and "OK" not in captured.out


@pytest.mark.parametrize("max_pairs", [-1, -3])
def test_verify_atlas_rejects_negative_max_pairs(max_pairs):
    from deltasimplex.atlas import verify_atlas

    with pytest.raises(PreconditionError, match="max_pairs"):
        verify_atlas(enumerate_atlas(2, 2), max_pairs=max_pairs)
