"""Call tracing of the package's functions, from outside the package.

`Tracer.install()` replaces each traced function by a timing wrapper in
every `deltasimplex` module that binds it, which is where the calling code
looks the name up (`deltasimplex.enumeration.corner_minimum`, the
intra-module `deltasimplex.exact_linalg.det`, ...). Each call becomes a span
(name, start, end, parent span) kept in memory; `dump()` writes the spans
out once the traced work is done, together with per-name call counts, self
times and the counters recorded at the same boundaries.

Run as a script it traces one CLI invocation in a fresh interpreter:

    PYTHONPATH=src python3 bench/tracer.py OUT_PREFIX -- enumerate --delta 3 --dim 4 --out a.jsonl

which writes OUT_PREFIX.json (aggregates) and OUT_PREFIX.spans (raw spans).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module, function) pairs traced at the module that defines them.
TRACED = (
    ("atlas_cli", "enumerate_atlas"),
    ("atlas_cli", "write_atlas"),
    ("atlas_cli", "verify_atlas"),
    ("enumeration", "candidates_for_block"),
    ("enumeration", "c0_candidates"),
    ("corner_ilp", "corner_minimum"),
    ("corner_ilp", "corner_minimum_excluding_vertex"),
    ("corner_ilp", "count_minimum_attainers"),
    ("corner_ilp", "_dijkstra"),
    ("equivalence", "dedup_families"),
    ("equivalence", "equivalent_normalized_set"),
    ("equivalence", "check_equivalence"),
    ("normal_form", "normalize"),
    ("normal_form", "_normalize_primitive"),
    ("normal_form", "validate_normalized"),
    ("normal_form", "primitivize"),
    ("normal_form", "key_tuple"),
    ("simplex_model", "validate_simplex"),
    ("simplex_model", "count_integer_points_bruteforce"),
    ("simplex_model", "compose"),
    ("simplex_model", "inverse"),
    ("simplex_model", "apply_map"),
    ("exact_linalg", "det"),
    ("exact_linalg", "adjugate"),
    ("exact_linalg", "hnf"),
    ("exact_linalg", "solve_rational"),
    ("exact_linalg", "mat_mul"),
)

# Memo caches read through cache_info() at dump time.
CACHES = (
    ("corner_ilp", "_group_table_cached", "corner_ilp.group_table"),
    ("exact_linalg", "_adjugate_cached", "exact_linalg.adjugate"),
    ("exact_linalg", "_hnf_cached", "exact_linalg.hnf"),
)


class _ByteCounter:
    """Stream proxy that counts the UTF-8 bytes written through it."""

    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self.stream.write(text)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: dict[str, int] = {}
        # One entry per span, indexed by span id; the parent of a root span is -1.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []  # span ids of the calls in progress
        self._child: list[float] = []  # time covered by each open span's children
        self._hc_pairs: set = set()
        self._want = (True, True)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap `fn` so that each call records a span named `name`.

        `after(args, kwargs, result)` runs once the call has returned, outside
        the timed interval, to record counters at the same boundary.
        """
        name_id = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        clock = time.perf_counter
        open_, child = self._open, self._child
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(open_[-1] if open_ else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                dur = t1 - t0
                self_s[name_id] += dur - child.pop()
                total_s[name_id] += dur
                calls[name_id] += 1
                if child:
                    child[-1] += dur
                starts[sid] = t0
                ends[sid] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- counters recorded at layer boundaries ---------------------------------

    def _after_block(self, args, kwargs, result):
        empties, lattices = result
        self.count("enumeration.candidates.empty", len(empties))
        self.count("enumeration.candidates.lattice", len(lattices))

    def _after_c0(self, args, kwargs, result):
        want_empty, want_lattice = self._want
        if hasattr(result, "l_star"):
            if want_empty:
                self.count("enumeration.c0_tried.empty", max(0, result.f_star - result.l_star))
        elif want_lattice:
            self.count("enumeration.c0_tried.lattice")

    def _after_dijkstra(self, args, kwargs, result):
        table, weights = args
        self._hc_pairs.add((table.H, tuple(weights)))

    def _after_dedup(self, args, kwargs, result):
        self.count("equivalence.dedup.in", len(args[0]))
        self.count("equivalence.dedup.out", len(result))

    def _after_equivalent_set(self, args, kwargs, result):
        self.count("equivalence.equivalent_set.forms", len(result.records))

    def _after_check(self, args, kwargs, result):
        kind = "equivalent" if result.equivalent else result.certificate
        self.count(f"equivalence.check_equivalence.cert.{kind}")

    def install(self) -> None:
        """Rebind every traced function in each package module that holds it."""
        importlib.import_module("deltasimplex")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "deltasimplex" or name.startswith("deltasimplex."))
        ]
        afters = {
            "enumeration.candidates_for_block": self._after_block,
            "enumeration.c0_candidates": self._after_c0,
            "corner_ilp._dijkstra": self._after_dijkstra,
            "equivalence.dedup_families": self._after_dedup,
            "equivalence.equivalent_normalized_set": self._after_equivalent_set,
            "equivalence.check_equivalence": self._after_check,
        }
        for mod_name, fn_name in TRACED:
            original = getattr(importlib.import_module(f"deltasimplex.{mod_name}"), fn_name)
            name = f"{mod_name}.{fn_name}"
            if name == "enumeration.candidates_for_block":
                wrapped = self._block_wrapper(self.span(name, original, afters[name]))
            elif name == "atlas_cli.write_atlas":
                wrapped = self._write_wrapper(self.span(name, original))
            else:
                wrapped = self.span(name, original, afters.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _block_wrapper(self, traced):
        def wrapper(block, want_empty, want_lattice):
            self._want = (want_empty, want_lattice)
            return traced(block, want_empty, want_lattice)

        return wrapper

    def _write_wrapper(self, traced):
        def wrapper(records, stream):
            counting = _ByteCounter(stream)
            try:
                return traced(records, counting)
            finally:
                self.count("atlas_cli.write_atlas.bytes", counting.bytes)

        return wrapper

    # -- output ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name aggregates, counters and cache statistics."""
        spans = {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "total_s": self.total_s[i]}
            for i, name in enumerate(self.names)
        }
        caches = {}
        for mod_name, attr, label in CACHES:
            info = getattr(importlib.import_module(f"deltasimplex.{mod_name}"), attr).cache_info()
            caches[label] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
        counters = dict(self.counters)
        counters["corner_ilp.hc_pairs"] = len(self._hc_pairs)
        return {"spans": spans, "counters": counters, "caches": caches, "span_count": len(self.span_start)}

    def dump(self, prefix: str) -> None:
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, sort_keys=True)
        # Raw spans: a name table, then four equal-length binary columns.
        with open(prefix + ".spans", "wb") as fh:
            header = json.dumps({"names": self.names, "count": len(self.span_start),
                                 "columns": ["name:i", "parent:i", "start:d", "end:d"]})
            fh.write(header.encode("utf-8") + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT_PREFIX -- <delta-simplex arguments>", file=sys.stderr)
        return 2
    from deltasimplex import atlas_cli

    tracer = Tracer()
    tracer.install()
    status = atlas_cli.main(argv[2:])
    tracer.dump(argv[0])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
