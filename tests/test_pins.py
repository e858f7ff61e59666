"""Pins on what must stay fixed across commits: canonical output and traced names.

The atlas bytes of a small cell are compared with the hash recorded in the
benchmark's reference file, so a change to the canonical form or the record
format shows up here and not only in a benchmark run. The benchmark's tracer
wraps package functions by name from outside the package; every name it
lists must keep resolving.
"""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

from deltasimplex.atlas_cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_atlas_matches_reference(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())["atlases"]["smoke-d3n4"]
    out = tmp_path / "smoke.jsonl"
    assert main(["enumerate", "--family", "both", "--delta", "3", "--dim", "4", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == reference["sha256"]
    assert len(data.splitlines()) == reference["classes"]


def test_traced_names_resolve():
    tracer = _load_tracer()
    for mod_name, fn_name in tracer.TRACED:
        module = importlib.import_module(f"deltasimplex.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    for mod_name, attr, _label in tracer.CACHES:
        module = importlib.import_module(f"deltasimplex.{mod_name}")
        getattr(module, attr).cache_info()
