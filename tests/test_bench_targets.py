"""Every function the benchmark tracer wraps must exist in the package.

`bench/spans.py` patches the names in its `TARGETS` and reads the lru caches in
`CACHED`; a renamed or deleted one would crash every traced bench pass. The
file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import layerscope  # noqa: F401  (imports every layer the targets name)

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_targets_resolve():
    spans = _spans()
    missing = []
    for layer, path, _ in spans.TARGETS:
        owner = importlib.import_module(f"layerscope.{layer}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer}.{path}")
    assert not missing, missing


def test_bench_cached_functions_have_caches():
    spans = _spans()
    for layer, name in spans.CACHED:
        fn = getattr(importlib.import_module(f"layerscope.{layer}"), name, None)
        assert callable(getattr(fn, "cache_info", None)), f"{layer}.{name}"
