"""Closed-loop, in-process equivalence client: one query at a time.

Each query times `check_equivalence(S, T)` and then `normalize(T, base)` of
the moved system, and checks both answers with the benchmark's own exact
arithmetic (see querygen.py). Prints one JSON summary line.

    PYTHONPATH=src python3 bench/client.py --seed 1 --start 0 --count 250
    PYTHONPATH=src python3 bench/client.py --seed 1 --count 1000 --trace OUT_PREFIX

`--start` skips that many queries of the seeded stream, so a run can serve
one stream in chunks between other work. The summary lists every latency,
and for each query the factor that takes it to the reference speed of the
machine (speed.py), from calibrations taken before and after every
CALIBRATE_EVERY queries.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import querygen
import speed

CALIBRATE_EVERY = 25


def run(args) -> dict:
    # Looked up on the package at call time, so that traced wrappers apply.
    import deltasimplex as ds

    stream = querygen.query_stream(args.seed, querygen.load_pool())
    for _ in range(args.start):
        next(stream)
    check_ms: list[float] = []
    normalize_ms: list[float] = []
    scale: list[float] = []
    errors: list[str] = []
    clock = time.perf_counter

    def one(q):
        s = ds.InequalitySystem(q.n, *q.s)
        t = ds.InequalitySystem(q.n, *q.t)
        t0 = clock()
        result = ds.check_equivalence(s, t)
        t1 = clock()
        ns, amap, _ = ds.normalize(t, q.base_t)
        t2 = clock()
        check_ms.append((t1 - t0) * 1e3)
        normalize_ms.append((t2 - t1) * 1e3)
        if result.equivalent != q.equivalent:
            return f"expected equivalent={q.equivalent}, got {result.certificate or 'equivalent'}"
        if q.equivalent and not q.check_witness(result.witness.U, result.witness.x0):
            return "witness does not map vert(S) onto vert(T)"
        ns_verts = querygen.vertices(ns.full_matrix(), ns.full_rhs())
        if frozenset(querygen.apply_affine(amap.U, amap.x0, v) for v in ns_verts) != querygen.vertices(*q.t):
            return "normalize map does not carry the normalized simplex onto T"
        return None

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        one = tracer.span("bench.query", one)

    attempted = 0
    start = clock()
    before = speed.calibration()
    while attempted < args.count:
        q = next(stream)
        attempted += 1
        try:
            problem = one(q)
        except Exception as exc:  # a crash is one failed query; keep serving the rest
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            errors.append(f"query {attempted - 1}: {problem}")
        if attempted % CALIBRATE_EVERY == 0 or attempted == args.count:
            after = speed.calibration()
            scale.extend([speed.scale(before, after)] * (len(check_ms) - len(scale)))
            before = after
    loop_s = clock() - start
    if tracer is not None:
        tracer.dump(args.trace)
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "loop_s": loop_s,
        "check_ms": check_ms,
        "normalize_ms": normalize_ms,
        "scale": scale,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=int, default=0, help="index of the first query in the stream")
    parser.add_argument("--count", type=int, required=True, help="number of queries to answer")
    parser.add_argument("--trace", default=None, help="trace the calls and write OUT_PREFIX.{json,spans}")
    print(json.dumps(run(parser.parse_args())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
