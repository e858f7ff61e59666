"""Smoke check of the benchmark itself, on the tiny cell (delta, n) = (3, 4).

    python3 bench/smoke.py

Asserts that an untraced run prints every end-to-end metric of
BENCHMARK.json and a traced run every per-layer metric, each with its unit;
that a deliberately corrupted atlas fails both the benchmark's reference
check and the program's `verify`; and that the benchmark refuses to run,
printing no result, in a directory that holds only the benchmark.
Exits 0 when every check holds. Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

WORKLOAD = "smoke-d3n4"


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_result(proc: subprocess.CompletedProcess, specs: list[dict]) -> None:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    expected = {m["name"]: m["unit"] for m in specs}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected, set(printed) ^ set(expected)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def check_corruption(work) -> None:
    ref = json.loads((run.BENCH_DIR / "reference.json").read_text())["atlases"][WORKLOAD]
    atlas = work / "atlas.jsonl"
    p = run.run_process(run.cli("enumerate", *run.SMOKE_WORKLOADS[WORKLOAD], "--out", str(atlas)), work, "enum")
    assert run.atlas_problem(p, atlas, ref) is None
    assert run.verify_problem(run.run_process(run.cli("verify", str(atlas)), work, "verify"), ref["classes"]) is None

    # Shift c0 of the first record by one: still valid JSON and still a
    # simplex, but no longer the reference bytes nor the stored key.
    lines = atlas.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["c0"] -= 1
    lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    atlas.write_text("".join(lines))
    assert run.atlas_problem(p, atlas, ref) is not None, "corrupted atlas passed the reference check"
    pv = run.run_process(run.cli("verify", str(atlas)), work, "verify-corrupt")
    assert run.verify_problem(pv, ref["classes"]) is not None, "corrupted atlas passed verify"


def check_bare_directory(work) -> None:
    bare = work / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", WORKLOAD, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0, "benchmark ran without a program"
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_result(bench("--workload", WORKLOAD, "--seed", "1", "--seconds", "1", "--trace", "0"), spec["end_to_end"])
    check_result(bench("--workload", WORKLOAD, "--seed", "1", "--seconds", "1", "--trace", "1"), spec["per_layer"])
    work = run.WORK_ROOT / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_corruption(work)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
