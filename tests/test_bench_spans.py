"""The benchmark's tracer wraps sl3rep functions by name (bench/spans.py).

A refactor that renames or drops one of them would break
`bench/run.py --trace 1` without failing any other test, so every name the
tracer reads must resolve in the package.
"""

import importlib
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans() -> dict:
    # executed from its source text, so no bytecode is written under bench/
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS_FILE.read_text(), str(SPANS_FILE), "exec"), namespace)
    return namespace


def test_every_span_target_resolves():
    spans = load_spans()
    missing = []
    for modname, attr, _layer, _counter in spans["SPANS"]:
        mod = importlib.import_module(f"sl3rep.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in cls.__dict__:
                missing.append(f"{modname}.{attr}")
        elif not callable(getattr(mod, attr, None)):
            missing.append(f"{modname}.{attr}")
    assert not missing


def test_every_counted_cache_has_cache_info():
    spans = load_spans()
    missing = [f"{modname}.{attr}" for modname, attr in spans["CACHE_COUNTS"]
               if not hasattr(getattr(importlib.import_module(f"sl3rep.{modname}"),
                                      attr, None), "cache_info")]
    assert not missing
