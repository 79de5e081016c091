"""Tests of the benchmark's own checks and of its tracing.

Run from the root of a checkout:  python3 bench/selftest.py

For each workload it runs the program once, requires the checks to accept
the real outputs, and then requires them to reject a deliberately wrong
copy: a perturbed matrix entry, a flipped invariance verdict, a Lambda
certificate off by 1/2, a false bracket result, a wrong coefficient in the
program's own action at a complex lambda, a non-unitary D-matrix.
It then makes two traced passes and one untraced pass of every workload,
and requires identical per-layer counts and identical outputs.  Exit code 0
when every test passes.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7
FAILURES: list[str] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}{' - ' + detail if detail else ''}", flush=True)
    if not ok:
        FAILURES.append(name)


def rejects(name: str, data, out) -> None:
    _, problems = checks.check(name, data, out)
    expect(f"{name} checker rejects the wrong output", bool(problems),
           problems[0] if problems else "no problem found")


def outputs(name: str):
    data = wl.make_inputs(name, SEED)
    out = wl.run(name, wl.prepare(name, data))
    ops, problems = checks.check(name, data, out)
    expect(f"{name} checker accepts the real outputs", not problems,
           f"{len(ops)} operations" if not problems else problems[0])
    return data, out


def test_certify() -> None:
    data, out = outputs("certify")
    bad = copy.deepcopy(out)
    bad["k3"].chain[1]["invariant"] = False
    rejects("certify", data, bad)
    bad = copy.deepcopy(out)
    bad["negatives"][0].invariant = True
    bad["negatives"][0].leakage = []
    rejects("certify", data, bad)
    # a Lambda certificate off by 1/2: the real certificate checked at a
    # spectral parameter moved by (1/2, 0, -1/2) must be refused
    cert = next(c for c in out["k23"].certificates if c["reason"] == "lambda-zero")
    lam = (11, -11, 0)
    expect("Lambda certificate holds at its own lambda",
           checks.certificate_problem(cert, lam) is None)
    moved = (Fraction(23, 2), -11, Fraction(-1, 2))
    why = checks.certificate_problem(cert, moved)
    expect("Lambda certificate off by 1/2 is refused", why is not None, why or "")
    # ... and a report whose certificate names the wrong Lambda factor
    bad = copy.deepcopy(out)
    i = next(i for i, c in enumerate(bad["k23"].certificates) if c["reason"] == "lambda-zero")
    bad["k23"].certificates[i]["detail"] = bad["k23"].certificates[i]["detail"].replace(
        "Lambda^(-2)", "Lambda^(2)")
    rejects("certify", data, bad)


def test_bracket() -> None:
    data, out = outputs("bracket")
    bad = list(out)
    bad[len(bad) // 2] = False
    rejects("bracket", data, bad)
    # a wrong action in the program itself: one coefficient of pi(Z1) at the
    # complex lambda off by 1e-6, which the float recomputation must catch
    from sl3rep import action

    real = action.decompose_standard_basis

    def skewed(tag, idx, lam=None):
        vec = dict(real(tag, idx, lam).items())
        if tag == "Z1" and vec:
            vec[min(vec)] += 1e-6
        return vec

    action.decompose_standard_basis = skewed
    try:
        rejects("bracket", data, out)
    finally:
        action.decompose_standard_basis = real


def test_assemble() -> None:
    data, out = outputs("assemble")
    code, text = out[0]
    doc = json.loads(text)
    labels = [tuple(lab) for lab in doc["labels"]]
    col = checks.sampled_columns(data, 0, labels)[0]
    for block in doc["blocks"]:
        if col in map(tuple, block["cols"]):
            j = [tuple(c) for c in block["cols"]].index(col)
            nonzero = [i for i in range(len(block["rows"]))
                       if any(block["entries"][i * len(block["cols"]) + j])]
            if nonzero:
                k = nonzero[0] * len(block["cols"]) + j
                block["entries"][k][0] += 1e-6
                break
    bad = [(code, json.dumps(doc))] + out[1:]
    rejects("assemble", data, bad)


def test_oracle() -> None:
    data, out = outputs("oracle")
    ops, _ = checks.check("oracle", data, out)
    failed = sorted(op for op, ok in ops if not ok)
    expect("oracle fails exactly the D-matrices from l = 30 on",
           failed == ["D^30", "D^40", "D^50", "D^60"], str(failed))
    bad = dict(out, d_matrices=[d.copy() for d in out["d_matrices"]])
    bad["d_matrices"][1][3, 4] += 1e-6
    rejects("oracle", data, bad)
    bad = dict(out, orthogonality=dict(out["orthogonality"], max_deviation=2e-9))
    rejects("oracle", data, bad)


def one_pass(name: str, mode: str) -> dict:
    proc = subprocess.run([sys.executable, "-s", os.path.join(HERE, "one_pass.py"), name,
                           str(SEED), mode, str(time.monotonic_ns()),
                           str(min(os.sched_getaffinity(0)))],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tracing() -> None:
    for name in wl.WORKLOADS:
        first, second = one_pass(name, "trace"), one_pass(name, "trace")
        counts = [{k: v[0] for k, v in p["layers"].items() if k in spans.COUNT_METRICS}
                  for p in (first, second)]
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                if counts[0][k] != counts[1][k]}
        expect(f"{name}: two traced passes give identical per-layer counts",
               not diff and set(counts[0]) == set(spans.COUNT_METRICS), str(diff))
        plain = one_pass(name, "run")
        expect(f"{name}: traced and untraced passes give the same outputs",
               first["digest"] == second["digest"] == plain["digest"])


if __name__ == "__main__":
    for test in (test_certify, test_bracket, test_assemble, test_oracle,
                 test_tracing):
        test()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    sys.exit(1 if FAILURES else 0)
