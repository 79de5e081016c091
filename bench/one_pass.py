"""One cold pass of a workload in this interpreter; prints one JSON line.

Usage: one_pass.py WORKLOAD SEED MODE LAUNCH_NS CPU

MODE is `run` (an untraced pass), `trace` (a pass with per-layer spans) or
`base` (an untraced pass of the frozen copy under `baseline/`, whose
outputs are not checked).
LAUNCH_NS is the CLOCK_MONOTONIC time at which the parent launched this
interpreter, so set-up time covers interpreter start, imports and input
building.  CPU is the core the pass is pinned to.  The per-layer metrics are read and the outputs checked after
the timer stops.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# the frozen copy of the package that `base` passes run; see README.md
BASE = os.path.join(HERE, "baseline")

# the modules each workload loads, as the matching sl3rep command would
IMPORTS = {
    "certify": ("sl3rep.structure",),
    "bracket": ("sl3rep.action",),
    "assemble": ("sl3rep.cli", "sl3rep.action"),
    "oracle": ("sl3rep.oracle", "sl3rep.wigner"),
}
ALL_MODULES = ("sl3rep.scalars", "sl3rep.ktvector", "sl3rep.wigner", "sl3rep.clebsch",
               "sl3rep.series", "sl3rep.action", "sl3rep.structure", "sl3rep.sl2",
               "sl3rep.oracle", "sl3rep.cli")
MODES = ("run", "trace", "base")


def digest(name: str, out) -> str:
    """Fingerprint of the outputs, to show tracing leaves them unchanged."""
    if name == "certify":
        out = ({k: out[k].to_json() for k in ("k23", "k3", "even_k", "degenerate")},
               [vars(r) for r in out["negatives"]])
        blob = json.dumps(out, sort_keys=True, default=str).encode()
    elif name == "oracle":
        blob = pickle.dumps((out["orthogonality"], out["theorem"],
                             [d.tobytes() for d in out["d_matrices"]]))
    else:
        blob = json.dumps(out).encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv: list[str]) -> int:
    name, seed, mode, launch_ns = argv[0], int(argv[1]), argv[2], int(argv[3])
    os.sched_setaffinity(0, {int(argv[4])})
    if mode not in MODES:
        print(f"error: mode must be one of {MODES}", file=sys.stderr)
        return 2
    traced = mode == "trace"
    src = BASE if mode == "base" else SRC
    sys.path.insert(0, src)
    import importlib

    for mod in ALL_MODULES if traced else IMPORTS[name]:
        importlib.import_module(mod)
    import sl3rep

    if not os.path.abspath(sl3rep.__file__).startswith(src + os.sep):
        print(f"error: sl3rep was imported from {sl3rep.__file__}", file=sys.stderr)
        return 1
    import workloads

    data = workloads.make_inputs(name, seed)
    prepared = workloads.prepare(name, data)
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start_ns = time.monotonic_ns()
    out = workloads.run(name, prepared)
    end_ns = time.monotonic_ns()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()  # before the checks, which call into the package
    result = {
        "run_s": (end_ns - start_ns) / 1e9,
        "setup_s": (start_ns - launch_ns) / 1e9,
        "peak_rss_mb": peak_mb,
    }
    if mode == "base":
        print(json.dumps(result))
        return 0
    import checks

    ops, problems = checks.check(name, data, out)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result.update({
        "attempted": len(ops),
        "failed": sum(not ok for _, ok in ops),
        "correct": not problems,
        "digest": digest(name, out),
    })
    if layers:
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    # skip the teardown of the package's caches and arrays, which is no part
    # of what a pass measures and would only shorten the run's sampling
    os._exit(code)
