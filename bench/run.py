"""Benchmark of sl3rep: one workload, run as repeated cold passes.

Usage (from the root of a checkout):

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Each pass is a fresh interpreter (`one_pass.py`), so every lru_cache of the
package starts empty, as in a command-line call, and no pass can reuse the
work of another.  Two streams of passes, one per core, run side by side
until `--seconds` have been spent.  Each stream alternates passes of the
program with passes of the frozen copy under `baseline/`, and the program's
mean times are reported at the reference speed of the machine (see
`summarize`).  With `--trace 1` traced passes take the place of the frozen
copy's, and the per-layer metrics come from them.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Every pass attempts the same operations, so
`attempted` and `failed` are those of one pass; a run whose passes disagree
on them is not correct.  The full record of the run, every pass included, is
written to `bench/results/`.  Exit code 0 on a completed run, 1 if a pass
failed to run, 2 if the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from spans import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STREAMS = 2             # pass streams, one per core, run side by side
HARD_LIMIT_S = 150.0    # launch no pass that would end after this
PASS_TIMEOUT_S = 120.0
# mean pass times of the frozen copy under baseline/ on the reference
# machine (README.md), in the runs made to tune the benchmark: the speed at
# which run_s and setup_s are reported
REFERENCE = {
    "certify": {"run_s": 4.9, "setup_s": 0.22},
    "bracket": {"run_s": 4.3, "setup_s": 0.33},
    "assemble": {"run_s": 3.3, "setup_s": 0.23},
    "oracle": {"run_s": 2.3, "setup_s": 0.54},
}
CHILD_ENV = {
    # one BLAS thread, so numpy work does not contend with itself on 2 cores
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    # fixed string hashing, so the outputs of every pass are identical
    "PYTHONHASHSEED": "0",
}


def stream_cpus() -> list[int]:
    """The cores the pass streams are pinned to: at most two, one stream each."""
    return sorted(os.sched_getaffinity(0))[:STREAMS]


def run_pass(workload: str, seed: int, mode: str, cpu: int, timeout: float) -> dict:
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    launch_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-s", os.path.join(HERE, "one_pass.py"), workload,
         str(seed), mode, str(launch_ns), str(cpu)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} pass exited {proc.returncode}")
    res = json.loads(lines[-1])
    res["wall_s"] = (time.monotonic_ns() - launch_ns) / 1e9
    res["cpu"] = cpu
    return res


def run_stream(args, cpu: int, order: tuple, start: float, done: dict,
               lock: threading.Lock, stop: threading.Event, errors: list) -> None:
    """Pairs of passes, one after another on one core, until --seconds are spent.

    A pair is an untraced pass of the program and its partner: a pass of the
    frozen copy (`base`), or with --trace 1 a traced pass.  `order` is the
    order of the two within each pair.
    """
    walls: list = []
    try:
        while not stop.is_set():
            pair_start = time.monotonic()
            for mode in order:
                timeout = min(PASS_TIMEOUT_S, HARD_LIMIT_S + 20 - (time.monotonic() - start))
                res = run_pass(args.workload, args.seed, mode, cpu, timeout)
                with lock:
                    done[mode].append(res)
            walls.append(time.monotonic() - pair_start)
            typical = statistics.median(walls)
            elapsed = time.monotonic() - start
            # a pair is launched if it would end within half its length of --seconds
            if elapsed + typical / 2 > args.seconds or elapsed + typical > HARD_LIMIT_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        errors.append(f"{args.workload} pass on core {cpu} failed: {exc}")
        stop.set()


def summarize(workload: str, untraced: list, traced: list,
              base: list) -> tuple[dict, list[str]]:
    """Metrics over the passes; per-layer ones when there are traced passes.

    The times are those of the program at the reference speed of the
    machine: the program's mean pass time over the run, times the ratio of
    the frozen copy's time on the reference machine (REFERENCE) to its mean
    pass time over the same run.  The two kinds of pass alternate on each
    core, so both see the same speeds of the machine.
    """
    problems = []
    if traced:
        metrics = {}
        layers = [p["layers"] for p in traced]
        for name, (_, unit) in layers[0].items():
            vals = [lay[name][0] for lay in layers]
            if name in COUNT_METRICS:
                if len(set(vals)) != 1:
                    problems.append(f"count {name} differs between traced passes: {vals}")
                metrics[name] = {"value": vals[0], "unit": unit}
            else:
                metrics[name] = {"value": statistics.median(vals), "unit": unit}
        t_run = statistics.fmean(p["run_s"] for p in traced)
        u_run = statistics.fmean(p["run_s"] for p in untraced)
        metrics["trace.run_s"] = {"value": t_run, "unit": "s"}
        metrics["trace.untraced_run_s"] = {"value": u_run, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": t_run - u_run, "unit": "s"}
        if {p["digest"] for p in traced} != {p["digest"] for p in untraced}:
            problems.append("traced passes produced other outputs than untraced ones")
        return metrics, problems
    ref = REFERENCE[workload]
    metrics = {name: {"value": ref[name] * statistics.fmean(p[name] for p in untraced)
                      / statistics.fmean(p[name] for p in base), "unit": "s"}
               for name in ("run_s", "setup_s")}
    metrics["peak_rss_mb"] = {"value": statistics.median(p["peak_rss_mb"] for p in untraced),
                              "unit": "MB"}
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sl3rep", "__init__.py")):
        print(f"error: no sl3rep sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    start = time.monotonic()
    done: dict = {"run": [], "trace": [], "base": []}
    lock, stop, errors = threading.Lock(), threading.Event(), []
    pair = ("run", "trace" if args.trace else "base")
    # the streams take the two passes of a pair in opposite orders
    threads = [threading.Thread(target=run_stream,
                                args=(args, cpu, pair if i % 2 == 0 else pair[::-1],
                                      start, done, lock, stop, errors))
               for i, cpu in enumerate(stream_cpus())]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    untraced, traced = done["run"], done["trace"]
    passes = untraced + traced
    metrics, problems = summarize(args.workload, untraced, traced, done["base"])
    counts = {(p["attempted"], p["failed"]) for p in passes}
    if len(counts) != 1:
        problems.append(f"passes disagree on (attempted, failed): {sorted(counts)}")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    attempted, failed = max(counts)
    result = {
        "correct": all(p["correct"] for p in passes) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    record = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "wall_s": time.monotonic() - start,
                   "untraced": untraced, "traced": traced, "base": done["base"],
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
