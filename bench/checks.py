"""Checks of each workload's outputs against the formulas in `reference`.

`check(name, data, out)` returns `(ops, problems)`: `ops` lists
`(operation, passed)` for every operation the pass attempted, and
`problems` says what is wrong.  An operation that fails is a problem,
except the one known fault the oracle workload keeps as counted failures:
`wigner.little_d` loses unitarity from l = 30 on (see README).
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

import numpy as np

import reference as ref
import workloads as wl

ALLOWED_REASONS = {"lambda-zero", "q-zero", "folded-cancellation", "out-of-range"}
LAMBDA_RE = re.compile(r"Lambda\^\((-?\d+)\)\(lam, (-?\d+), (-?\d+)\) = 0")
Q_RE = re.compile(r"q\((-?\d+), (-?\d+), (-?\d+), (-?\d+)\) = 0")
UNITARITY_TOL = 1e-9
KNOWN_FAULT_MIN_L = 30  # little_d is not unitary to 1e-9 from here on


def check(name: str, data: dict, out) -> tuple[list, list]:
    return {"certify": check_certify, "bracket": check_bracket,
            "assemble": check_assemble, "oracle": check_oracle}[name](data, out)


# ---------------------------------------------------------------------------
# certify


def certificate_problem(cert: dict, lam) -> str | None:
    """Why an invariant span's certificate is wrong, or None if it holds."""
    reason = cert.get("reason")
    if reason not in ALLOWED_REASONS:
        return f"certificate reason {reason!r} in an invariant span"
    (l, m1), (lt, _), j = cert["from"], cert["to"], cert["j"]
    if lt != l + j:
        return f"certificate {cert} does not step l by j"
    if reason == "lambda-zero":
        m = LAMBDA_RE.fullmatch(cert["detail"])
        if not m or int(m[2]) != l:
            return f"unreadable Lambda certificate {cert}"
        k, src = int(m[1]), int(m[3])
        val = ref.lambda_factor(k, j, l, src, tuple(Fraction(x) for x in lam))
        if val != 0:
            return f"Lambda^({k})_{j}({lam}, {l}, {src}) = {val}, not 0: {cert}"
    if reason == "q-zero":
        m = Q_RE.fullmatch(cert["detail"])
        if not m:
            return f"unreadable q certificate {cert}"
        k, jj, ll, src = map(int, m.groups())
        if ref.q(k, jj, ll, src) != 0.0:
            return f"q{(k, jj, ll, src)} is not 0: {cert}"
    return None


def _member_lambda(members, l, m1):
    lams = {lam for _, lam, pred in members if pred(l, m1)}
    return lams.pop() if len(lams) == 1 else None


def closed_form_multiplicities(name: str, l: int) -> list[int]:
    if name == "k23":
        return [ref.count_same_parity_at_least(23, l), ref.multiplicity((1, 0, 1), l)]
    if name == "k3":
        return [l % 2, int(l >= 1), ref.multiplicity((1, 0, 1), l)]
    if name == "even_k":
        total = ref.multiplicity((0, 0, 0), l)
        m_a = ref.count_same_parity_at_least(wl.EVEN_K, l)
        return [m_a, total - m_a, total]
    return [1]


def check_report(name: str, rep: dict, members, lmax_seen) -> list[str]:
    problems = []
    for member in rep["chain"]:
        if not member["invariant"]:
            problems.append(f"{name}: {member['name']} reported not invariant")
    if len(rep["chain"]) != len(members):
        problems.append(f"{name}: {len(rep['chain'])} chain members, want {len(members)}")
    for cert in rep["certificates"]:
        lam = _member_lambda(members, *cert["from"])
        why = ("certificate from outside every member" if lam is None
               else certificate_problem(cert, lam))
        if why:
            problems.append(f"{name}: {why}")
    rows = {int(l): row for l, row in rep["multiplicities"].items()}
    for l in lmax_seen:
        want = closed_form_multiplicities(name, l)
        if rows.get(l) != want:
            problems.append(f"{name}: multiplicities at l = {l} are {rows.get(l)}, want {want}")
    return problems


def check_certify(data: dict, out) -> tuple[list, list]:
    s = Fraction(data["s"])
    members = wl.report_members(s)
    reports = {k: out[k].to_json() for k in ("k23", "k3", "even_k", "degenerate")}
    ranges = {"k23": range(20, wl.K23_LMAX + 1), "k3": range(wl.K3_LMAX + 1),
              "even_k": range(wl.EVEN_LMAX + 1),
              "degenerate": range(0, wl.DEGENERATE_LMAX + 1, 2)}
    ops = []
    problems = []
    for name, rep in reports.items():
        found = check_report(name, rep, members[name], ranges[name])
        if name == "degenerate":
            meta = rep["metadata"]
            want = ref.vanishing_rungs(s, wl.DEGENERATE_LMAX)
            got = sorted(tuple(v) for v in meta["vanishing_rungs"])
            if got != want:
                found.append(f"degenerate: vanishing rungs {got}, roots give {want}")
            if [Fraction(x) for x in meta["lambda"]] != list(members[name][0][1]):
                found.append(f"degenerate: lambda {meta['lambda']} is not lambda(s)")
            if not meta["U_pm1_zero"]:
                found.append("degenerate: U_{+-1} reported nonzero on m1 = 0")
        ops.append((name, not found))
        problems += found
    for neg, res in zip(data["negatives"], out["negatives"]):
        pred = wl.predicate(neg["pred"])
        found = []
        if res.invariant or not res.leakage:
            found.append(f"negative control {neg['name']} reported invariant")
        for leak in res.leakage:
            if pred(leak["target"]):
                found.append(f"{neg['name']}: leakage target {leak['target']} is in the span")
        ops.append((neg["name"], not found))
        problems += found
    return ops, problems


# ---------------------------------------------------------------------------
# bracket


def program_action(lam):
    """act(tag, idx) read from sl3rep itself: its exact action of a (Y, Z)
    basis tag, evaluated at the complex lambda."""
    from sl3rep import action
    from sl3rep.wigner import WignerIndex

    def act(tag: str, idx) -> dict:
        vec = action.decompose_standard_basis(tag, WignerIndex(*idx), lam)
        return {tuple(t): complex(c) for t, c in vec.items()}
    return act


def check_bracket(data: dict, verdicts) -> tuple[list, list]:
    checks = data["checks"]
    problems = [f"[pi({a}), pi({b})] != pi([{a}, {b}]) reported on {idx}"
                for (a, b, idx), ok in zip(checks, verdicts) if ok is not True]
    if len(verdicts) != len(checks):
        problems.append(f"{len(verdicts)} verdicts for {len(checks)} checks")
    # on the sample, the program's own action at the complex lambda must give
    # the five-term formula's pi(A) pi(B) D, pi(B) pi(A) D and pi([A, B]) D,
    # and these must satisfy the commutator identity in floating point
    program, formula = program_action(data["lambda"]), ref.basis_action(data["lambda"])
    for i in data["sample"]:
        a, b, idx = checks[i]
        got = ref.bracket_terms(a, b, idx, program)
        want = ref.bracket_terms(a, b, idx, formula)
        tol = 1e-9 * max(1.0, max((abs(v) for v in want[0].values()), default=0.0))
        dist = max(ref.max_distance(g, w) for g, w in zip(got, want))
        if dist > tol:
            problems.append(f"program's action for ({a}, {b}) on {idx} differs from "
                            f"the five-term formula by {dist:.3e}")
        ab, ba, br = got
        defect = ref.max_distance(ab, {t: ba.get(t, 0) + br.get(t, 0)
                                       for t in set(ba) | set(br)})
        if defect > tol:
            problems.append(f"float commutator defect {defect:.3e} for ({a}, {b}) on {idx}")
    ops = [((a, b, idx), ok is True) for (a, b, idx), ok in zip(checks, verdicts)]
    return ops, problems


# ---------------------------------------------------------------------------
# assemble


def sampled_columns(data: dict, gen_index: int, labels: list) -> list:
    rng = random.Random(data["column_seed"] + gen_index)
    return rng.sample(labels, min(wl.ASSEMBLE_COLUMNS, len(labels)))


def check_matrix(data: dict, gen_index: int, code: int, text: str) -> list[str]:
    gen = data["gens"][gen_index]
    if code != 0:
        return [f"{gen}: sl3rep action exited {code}"]
    doc = json.loads(text)
    meta = doc["metadata"]
    delta, lmax, lam = data["delta"], data["lmax"], data["lambda"]
    problems = []
    want_labels = [lab for l in range(lmax + 1) for lab in ref.labels(delta, l)]
    labels = [tuple(lab) for lab in doc["labels"]]
    if labels != want_labels:
        return [f"{gen}: labels differ from the parity rule"]
    if meta["generator"] != gen or meta["lmax"] != lmax or meta["delta"] != delta:
        problems.append(f"{gen}: metadata does not echo the inputs")
    columns = {}  # column label -> {row label: nonzero entry}
    for block in doc["blocks"]:
        rows, cols = block["rows"], block["cols"]
        vals = block["entries"]
        for i, r in enumerate(rows):
            for jcol, c in enumerate(cols):
                re_, im = vals[i * len(cols) + jcol]
                if re_ or im:
                    columns.setdefault(tuple(c), {})[tuple(r)] = complex(re_, im)
    truncated = {}
    for lab, lt in meta["truncated"]:
        if lt <= lmax:
            problems.append(f"{gen}: truncated entry {lab} -> l = {lt} inside the window")
        truncated.setdefault(tuple(lab), set()).add(lt)
    for col in sampled_columns(data, gen_index, labels):
        want = ref.act_on_label(gen, col, delta, lam)
        got_col = columns.get(col, {})
        for row in set(want) | set(got_col):
            w = want.get(row, 0)
            if row[0] > lmax:
                if abs(w) > 1e-12 and row[0] not in truncated.get(col, ()):
                    problems.append(f"{gen}: {col} -> {row} dropped without a truncation record")
                continue
            got = got_col.get(row, 0)
            if abs(got - w) > 1e-9 * max(1.0, abs(w)):
                problems.append(f"{gen}: entry {row} <- {col} is {got}, five-term formula gives {w}")
    return problems


def check_assemble(data: dict, out) -> tuple[list, list]:
    ops, problems = [], []
    for i, (code, text) in enumerate(out):
        found = check_matrix(data, i, code, text)
        ops.append((data["gens"][i], not found))
        problems += found
    return ops, problems


# ---------------------------------------------------------------------------
# oracle


def unitarity_deviation(d: np.ndarray) -> float:
    return float(np.abs(d @ d.conj().T - np.eye(d.shape[0])).max())


def check_oracle(data: dict, out) -> tuple[list, list]:
    ops, problems = [], []
    orth = out["orthogonality"]
    lmax = data["ortho_lmax"]
    count = sum((2 * l + 1) ** 2 for l in range(lmax + 1))
    found = []
    if orth["count"] != count or orth["pairs"] != count ** 2:
        found.append(f"orthogonality covered {orth['count']} functions, want {count}")
    if not orth["max_deviation"] < 1e-9:
        found.append(f"orthogonality deviation {orth['max_deviation']:.3e} >= 1e-9")
    ops.append(("orthogonality", not found))
    problems += found
    th, want = out["theorem"], data["theorem"]
    found = []
    ran = (th["lmax"], th["samples"], th["seed"], th["step"])
    if ran != (want["lmax"], want["samples"], want["seed"], wl.THEOREM_STEP):
        found.append(f"theorem-main ran with (lmax, samples, seed, step) = {ran}")
    if not th["max_deviation"] < 1e-6:
        found.append(f"theorem-main deviation {th['max_deviation']:.3e} >= 1e-6")
    ops.append(("theorem-main", not found))
    problems += found
    for l, d in zip(data["d_ls"], out["d_matrices"]):
        dev = unitarity_deviation(d) if d.shape == (2 * l + 1,) * 2 else math.inf
        ok = dev <= UNITARITY_TOL
        ops.append((f"D^{l}", ok))
        if not ok and l < KNOWN_FAULT_MIN_L:
            problems.append(f"D^{l} is not unitary: max |D D^H - I| = {dev:.3e}")
    return ops, problems
