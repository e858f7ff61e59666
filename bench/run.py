"""Benchmark of the delta-simplex CLI and equivalence service, end to end and per layer.

    python3 bench/run.py --workload both-d4n5 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the program under test is the
checkout's `src/deltasimplex`, started as `python3 -m deltasimplex.atlas_cli`
with `PYTHONPATH=src`. Every measured process is a fresh interpreter, so
each sample pays cold module-level caches, as a CLI user does.

A run repeats rounds until `--seconds` have passed and at least
MIN_QUERIES queries were answered. One round is:

  1. set-up probe: a fresh interpreter that imports the package;
  2. `enumerate` of the workload's cell with --jobs 1, then with --jobs 2;
  3. `verify` of the jobs=1 atlas, repeated while the round's verify
     samples took less than VERIFY_SECONDS (at most MAX_VERIFIES times);
  4. a chunk of QUERY_CHUNK equivalence queries from the seeded stream,
     answered by a fresh in-process client (client.py).

Spreading the CLI samples and the query chunks over the whole run keeps a
slow phase of the machine from landing on one metric only. Every process
but `enumerate --jobs 2` runs on one CPU (see `pin_to_one_cpu`). Every time
is scaled to a reference speed of the machine, measured on the sample's
CPUs right before and after it (speed.py); the unscaled metrics go to
standard error. Every output is
checked: atlas bytes against the seed's sha256 and class count in
reference.json, jobs=1 bytes against jobs=2 bytes, `verify` must print OK,
and every query answer against its known truth (see querygen.py).

With `--trace 1` the run instead traces one jobs=1 `enumerate`, one
`verify` and one fixed-size query stream through tracer.py, next to
untraced runs of the same work, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Workload -> `enumerate` arguments of its cell; why each was chosen is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    "both-d4n5": ["--family", "both", "--delta", "4", "--dim", "5"],
    "lattice-upto3-n8": ["--family", "lattice", "--up-to", "--delta", "3", "--dim", "8"],
}
# A tiny cell for smoke.py; not listed in BENCHMARK.json.
SMOKE_WORKLOADS = {"smoke-d3n4": ["--family", "both", "--delta", "3", "--dim", "4"]}

MIN_QUERIES = 1000  # p99 then has at least ten samples beyond it
QUERY_CHUNK = 250
TRACE_QUERIES = 1000
PROCESS_TIMEOUT_S = 150
# A verify of a few records takes 0.1-0.2 s, mostly interpreter start, and
# varies more than a long one; repeating short ones within a round gives
# them as many samples per second of verify as long ones.
VERIFY_SECONDS = 1.0
MAX_VERIFIES = 5

ALL_CPUS = frozenset(os.sched_getaffinity(0))
ONE_CPU = frozenset({min(ALL_CPUS)})


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, broken harness)."""


class Proc:
    """Outcome of one child process: wall time, CPU time, peak RSS, output."""

    def __init__(self, status, wall_s, cpu_s, rss_mb, stdout, stderr):
        self.status = status
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("DELTA_SIMPLEX_JOBS", None)
    return env


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU from now on.

    On a host whose cores are shared with other tenants, a single-threaded
    sample that the scheduler is free to move between CPUs varies about
    three times as much from sample to sample as one kept on a single CPU:
    the same `verify` spread by 0.22 against 0.09, and `enumerate` by 0.19
    against 0.06 (interquartile range over median, 2-vCPU host).
    """
    os.sched_setaffinity(0, ONE_CPU)


def run_process(argv: list[str], work: Path, tag: str, all_cpus: bool = False) -> Proc:
    """Run argv to completion; time it and read its rusage through wait4.

    The child inherits this process's CPUs; with `all_cpus` it gets every
    CPU this benchmark was started with.
    """
    out_path, err_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        own_cpus = os.sched_getaffinity(0)
        if all_cpus:
            os.sched_setaffinity(0, ALL_CPUS)
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        finally:
            os.sched_setaffinity(0, own_cpus)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # kilobytes on Linux
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_scaled(argv: list[str], work: Path, tag: str, all_cpus: bool = False) -> tuple[Proc, float]:
    """run_process, and the factor that takes its times to the reference speed.

    The speed is read on every CPU the sample may run on.
    """
    cpus = ALL_CPUS if all_cpus else None
    before = speed.calibration(cpus)
    p = run_process(argv, work, tag, all_cpus)
    return p, speed.scale(before, speed.calibration(cpus))


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "deltasimplex.atlas_cli", *args]


class Tally:
    """Operations attempted and failed; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"check failed: {problem}", file=sys.stderr)
        return problem is None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def atlas_problem(p: Proc, path: Path, ref: dict) -> str | None:
    """Why an `enumerate` output does not match the reference, if it does not."""
    if p.status != 0:
        return f"enumerate exited {p.status}: {p.stderr.strip()[-300:]}"
    if not path.exists():
        return "enumerate wrote no atlas"
    lines = path.read_bytes().count(b"\n")
    if lines != ref["classes"]:
        return f"atlas has {lines} classes, reference {ref['classes']}"
    if sha256(path) != ref["sha256"]:
        return "atlas sha256 differs from the reference"
    return None


def verify_problem(p: Proc, classes: int) -> str | None:
    # Only stdout is checked: `-m deltasimplex.atlas_cli` prints a known
    # RuntimeWarning on stderr at start-up.
    expected = f"OK: {classes} record(s) verified"
    if p.status != 0 or p.stdout.strip() != expected:
        return f"verify exited {p.status} with {p.stdout.strip()[-200:]!r}, expected {expected!r}"
    return None


def client_result(p: Proc, tally: Tally) -> dict | None:
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tally.record(f"query client exited {p.status}: {p.stderr.strip()[-300:]}")
        return None
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    for reason in result["errors"]:
        print(f"check failed: {reason}", file=sys.stderr)
    return result


def client(seed: int, start: int, count: int, trace: str | None = None) -> list[str]:
    argv = [sys.executable, str(BENCH_DIR / "client.py"), "--seed", str(seed), "--start", str(start), "--count", str(count)]
    return argv + (["--trace", trace] if trace else [])


# ---------------------------------------------------------------------------
# End-to-end run


def measure(workload: str, cell: list[str], ref: dict, seed: int, seconds: float, work: Path) -> dict:
    tally = Tally()
    # Time samples as (measured, factor to the reference speed) pairs.
    setup, enum1, cpu1, enum2, verify, check_ms, normalize_ms = [], [], [], [], [], [], []
    rss1 = []
    start = time.perf_counter()
    round_no = 0
    while round_no == 0 or time.perf_counter() - start < seconds or len(check_ms) < MIN_QUERIES:
        tag = f"r{round_no}"
        p, k = run_scaled([sys.executable, "-c", "import deltasimplex.atlas_cli"], work, f"{tag}-setup")
        if p.status != 0:
            raise BenchError(f"the package does not import: {p.stderr.strip()[-300:]}")
        setup.append((p.wall_s, k))

        out1, out2 = work / f"{tag}-j1.jsonl", work / f"{tag}-j2.jsonl"
        p1, k = run_scaled(cli("enumerate", *cell, "--jobs", "1", "--out", str(out1)), work, f"{tag}-j1")
        if tally.record(atlas_problem(p1, out1, ref)):
            enum1.append((p1.wall_s, k))
            cpu1.append((p1.cpu_s, k))
            rss1.append(p1.rss_mb)
        p2, k = run_scaled(cli("enumerate", *cell, "--jobs", "2", "--out", str(out2)), work, f"{tag}-j2", all_cpus=True)
        problem = atlas_problem(p2, out2, ref)
        if problem is None and out1.exists() and out1.read_bytes() != out2.read_bytes():
            problem = "jobs=1 and jobs=2 atlases differ"
        if tally.record(problem):
            enum2.append((p2.wall_s, k))
        verify_wall = 0.0
        for i in range(MAX_VERIFIES):
            pv, k = run_scaled(cli("verify", str(out1)), work, f"{tag}-verify{i}")
            if tally.record(verify_problem(pv, ref["classes"])):
                verify.append((pv.wall_s, k))
            verify_wall += pv.wall_s
            if verify_wall >= VERIFY_SECONDS:
                break
        out1.unlink(missing_ok=True)
        out2.unlink(missing_ok=True)

        pc = run_process(client(seed, round_no * QUERY_CHUNK, QUERY_CHUNK), work, f"{tag}-client")
        result = client_result(pc, tally)
        if result is not None:
            check_ms.extend(zip(result["check_ms"], result["scale"]))
            normalize_ms.extend(zip(result["normalize_ms"], result["scale"]))
        round_no += 1
        if not (enum1 and enum2 and verify and check_ms) and round_no >= 3:
            break  # every sample of some kind fails; more rounds will not help

    print(
        f"{workload}: {round_no} rounds, {len(check_ms)} queries, {time.perf_counter() - start:.1f} s",
        file=sys.stderr,
    )
    if not (enum1 and enum2 and verify and check_ms):
        return {"tally": tally, "values": None}

    def metrics(scaled: bool) -> dict:
        def times(samples):
            return [t * k if scaled else t for t, k in samples]

        checks, normalizes = times(check_ms), times(normalize_ms)
        return {
            "enumerate_s": statistics.median(times(enum1)),
            "enumerate_cpu_s": statistics.median(times(cpu1)),
            "enumerate_jobs2_s": statistics.median(times(enum2)),
            "verify_s": statistics.median(times(verify)),
            "peak_rss_mb": max(rss1),
            "setup_s": statistics.median(times(setup)),
            "equiv_p50_ms": statistics.median(checks),
            "equiv_p99_ms": statistics.quantiles(checks, n=100)[98],
            "queries_per_s": len(checks) / ((sum(checks) + sum(normalizes)) / 1e3),
            "normalize_p50_ms": statistics.median(normalizes),
        }

    print(f"unscaled: {json.dumps(metrics(scaled=False))}", file=sys.stderr)
    return {"tally": tally, "values": metrics(scaled=True)}


# ---------------------------------------------------------------------------
# Traced run


def merge_summaries(parts: list[dict]) -> dict:
    """Sum span aggregates, counters and cache statistics of several traced processes."""
    spans: dict = {}
    counters: dict = {}
    caches: dict = {}
    span_count = 0
    for part in parts:
        span_count += part["span_count"]
        for name, agg in part["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += agg[key]
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, info in part["caches"].items():
            into = caches.setdefault(name, {"hits": 0, "misses": 0, "entries": 0})
            into["hits"] += info["hits"]
            into["misses"] += info["misses"]
            into["entries"] = max(into["entries"], info["entries"])
    return {"spans": spans, "counters": counters, "caches": caches, "span_count": span_count}


def ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_values(summary: dict, names: list[str]) -> dict:
    """Values of the per-layer metrics `names` from a merged trace summary."""
    spans, counters, caches = summary["spans"], summary["counters"], summary["caches"]
    derived = {
        # Candidates kept per c0 value tried, per family.
        "enumeration.empty_keep_ratio": ratio(
            counters.get("enumeration.candidates.empty", 0), counters.get("enumeration.c0_tried.empty", 0)),
        "enumeration.lattice_keep_ratio": ratio(
            counters.get("enumeration.candidates.lattice", 0), counters.get("enumeration.c0_tried.lattice", 0)),
        # Distinct (H, c) pairs per group Dijkstra run.
        "corner_ilp.hc_reuse_ratio": ratio(
            counters.get("corner_ilp.hc_pairs", 0), spans["corner_ilp._dijkstra"]["calls"]),
        "equivalence.dedup_keep_ratio": ratio(
            counters.get("equivalence.dedup.out", 0), counters.get("equivalence.dedup.in", 0)),
    }

    def value(name):
        if name in derived:
            return derived[name]
        if name.endswith(".cache_hit_ratio"):
            info = caches[name[: -len(".cache_hit_ratio")]]
            return ratio(info["hits"], info["hits"] + info["misses"])
        if name.endswith(".cache_entries"):
            return caches[name[: -len(".cache_entries")]]["entries"]
        if name.endswith(".calls"):
            return spans[name[: -len(".calls")]]["calls"]
        if name.endswith(".self_s"):
            return spans[name[: -len(".self_s")]]["self_s"]
        if name.endswith(".s"):
            return spans[name[: -len(".s")]]["total_s"]
        return counters.get(name, 0)

    return {name: value(name) for name in names}


def traced(cell: list[str], ref: dict, seed: int, work: Path, per_layer: list[str]) -> dict:
    tally = Tally()
    tracer = [sys.executable, str(BENCH_DIR / "tracer.py")]
    plain_out, traced_out = work / "untraced.jsonl", work / "traced.jsonl"

    p_plain = run_process(cli("enumerate", *cell, "--jobs", "1", "--out", str(plain_out)), work, "untraced")
    tally.record(atlas_problem(p_plain, plain_out, ref))
    p_enum = run_process(
        tracer + [str(work / "enumerate"), "--", "enumerate", *cell, "--jobs", "1", "--out", str(traced_out)],
        work, "traced-enumerate",
    )
    tally.record(atlas_problem(p_enum, traced_out, ref))
    p_verify = run_process(tracer + [str(work / "verify"), "--", "verify", str(traced_out)], work, "traced-verify")
    tally.record(verify_problem(p_verify, ref["classes"]))

    plain_q = client_result(run_process(client(seed, 0, TRACE_QUERIES), work, "untraced-client"), tally)
    traced_q = client_result(
        run_process(client(seed, 0, TRACE_QUERIES, str(work / "query")), work, "traced-client"), tally
    )
    if tally.failed or plain_q is None or traced_q is None:
        return {"tally": tally, "values": None}

    def load(prefix):
        with open(work / f"{prefix}.json", encoding="utf-8") as fh:
            return json.load(fh)

    cli_summary = merge_summaries([load("enumerate"), load("verify")])
    query_names = [n[len("query."):] for n in per_layer if n.startswith("query.")]
    values = layer_values(cli_summary, [n for n in per_layer if not n.startswith(("query.", "trace."))])
    values["trace.spans"] = cli_summary["span_count"]
    values.update({"query." + n: v for n, v in layer_values(load("query"), query_names).items()})
    values["trace.enumerate_overhead_s"] = p_enum.wall_s - p_plain.wall_s
    values["trace.query_overhead_s"] = traced_q["loop_s"] - plain_q["loop_s"]
    return {"tally": tally, "values": values}


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="delta-simplex benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cells = {**WORKLOADS, **SMOKE_WORKLOADS}
    if args.workload not in cells:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "deltasimplex" / "atlas_cli.py").is_file():
        print(f"no program to measure: {SRC / 'deltasimplex'} is missing", file=sys.stderr)
        return 2
    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)["atlases"][args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # A traced run keeps its spans in trace-<workload>/ until the next one.
    work = WORK_ROOT / (f"trace-{args.workload}" if args.trace else f"{args.workload}-{os.getpid()}")
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cell = cells[args.workload]
    pin_to_one_cpu()
    try:
        if args.trace:
            result = traced(cell, ref, args.seed, work, [m["name"] for m in spec["per_layer"]])
        else:
            result = measure(args.workload, cell, ref, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        if not args.trace:
            shutil.rmtree(work, ignore_errors=True)
    if result["values"] is None:
        print("no metrics: every sample of some kind failed its check", file=sys.stderr)
        return 1
    tally = result["tally"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
