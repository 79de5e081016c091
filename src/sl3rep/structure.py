"""Invariant-subspace detection and composition-series reports.

A subspace here is a span of symmetrized basis vectors selected by a
predicate on labels.  Invariance is decided in exact arithmetic on the
skeleton: by pi(Z_n) v_{l,m1,m2} = sum_j q(n,j,l,m2) U_j v_{l,m1,.}, the
coefficient of v_{l+j,t,m2+n} is q(n,j,l,m2) times a folded amplitude
A(j, l, m1 -> t) free of n and m2, and the skeleton is the directed graph
on (l, m1) rows with an edge (l, m1) -> (l+j, t) wherever A != 0.  Leakage
is the edges into labels outside the span, under a nonzero q; connectivity
is reachability along the edges; and each boundary transition that is no
edge gets a certificate naming the exact factor that vanishes: a Lambda
factor, a coupling coefficient, or a radical cancellation between the two
Wigner components of a folded basis vector.

The reports never claim irreducibility; they state invariance plus
reachability-connectedness of the label graph up to the window, and take
composition length as input metadata when echoing known chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .action import (_couplings, _folded_amplitudes, act_U, act_Z_on_basis,
                     label_components, lambda_factor)
from .clebsch import q
from .errors import VerificationError
from .scalars import RadicalScalar
from .series import BasisLabel, SeriesParams, basis, label_valid, multiplicity
from .wigner import WignerIndex


@dataclass(frozen=True)
class SubspaceSpec:
    """A predicate-defined span of basis vectors inside V_{lam,delta}."""

    name: str
    params: SeriesParams
    predicate: Callable[[BasisLabel], bool]

    def labels(self, lmax: int) -> list[BasisLabel]:
        out = []
        for l in range(lmax + 1):
            out.extend(lab for lab in basis(self.params, l) if self.predicate(lab))
        return out


@dataclass
class InvarianceResult:
    invariant: bool
    certificates: list[dict] = field(default_factory=list)
    leakage: list[dict] = field(default_factory=list)
    connected: bool | None = None
    checked_labels: int = 0


def _boundary_reason(params: SeriesParams, l: int, m1: int, j: int,
                     target_m1: int) -> dict:
    """Name the vanishing factor of a transition (l, m1) -> (l+j, target_m1).

    Called only for transitions that are no skeleton edge: their folded
    amplitude, the sum over components src in {m1, -m1} and k = target_m1
    - src of weight * c_k * q(k, j, l, src) * Lam^(k)(lam, l, src), is zero.
    If a term has both factors nonzero, the terms cancel between the folded
    components; otherwise a Lambda factor or a q vanishes.
    """
    contributions = []
    for src, _w in label_components(params.delta, l, m1):
        k = target_m1 - src
        if k in (-2, 0, 2) and target_m1 <= l + j:
            contributions.append((src, k, q(k, j, l, src),
                                  lambda_factor(k, j, l, src, params.lam)))
    if not contributions:
        return {"reason": "out-of-range", "detail": "no coupling path"}
    nonzero = [(src, k) for src, k, qk, lv in contributions if qk and lv]
    if nonzero:
        paths = ", ".join(f"(src m1 = {src}, shift {k})" for src, k in nonzero)
        return {"reason": "folded-cancellation",
                "detail": f"radical cancellation between {paths}"}
    for src, k, qk, lv in contributions:
        if not lv:
            return {"reason": "lambda-zero",
                    "detail": f"Lambda^({k})(lam, {l}, {src}) = 0"}
    src, k = contributions[0][:2]
    return {"reason": "q-zero", "detail": f"q({k}, {j}, {l}, {src}) = 0"}


def verify_invariant(spec: SubspaceSpec, lmax: int) -> InvarianceResult:
    """Exact closure check of a span under all Z and Y generators.

    Interior labels (l <= lmax - 2) are checked so no conclusion rests on
    window truncation.  One pass over the interior (l, m1) rows reads each
    row's exact folded U_j amplitudes once per j: its skeleton edges.  An
    edge into a label outside the span under a nonzero q(n,j,l,m2) is
    leakage, with coefficient q * amplitude; a boundary transition is
    certified as "leakage" if it is an edge and by `_boundary_reason`
    otherwise; connectivity is read from the same edges.  A row none of
    whose edges leaves the span in any m2 cannot leak, and its labels are
    not expanded.  Invariant spans are re-evaluated on the float path as an
    independent soundness check.
    """
    if lmax < 2:
        raise ValueError("lmax must be at least 2")
    params = spec.params
    if not params.exact:
        raise ValueError("invariance certification needs a rational "
                         "spectral parameter")
    result = InvarianceResult(invariant=True)
    interior = spec.labels(lmax - 2)
    result.checked_labels = len(interior)
    # The Y generators act within a fixed (l, m1) pair, so any predicate on
    # labels that admits one m2 admits the whole row; still verify that the
    # predicate is m2-saturated rather than assuming it.
    for lab in interior:
        for m2 in (lab.m2 - 1, lab.m2 + 1):
            if abs(m2) <= lab.l and not spec.predicate(BasisLabel(lab.l, lab.m1, m2)):
                result.invariant = False
                result.leakage.append({"label": list(lab), "generator": "Y",
                                       "target": [lab.l, lab.m1, m2],
                                       "coefficient": "ladder"})
    rows: dict[tuple, list[BasisLabel]] = {}
    for lab in interior:
        rows.setdefault(lab[:2], []).append(lab)
    delta, lam = tuple(params.delta), tuple(params.lam)
    edges: dict[tuple, set[tuple]] = {}
    for (l, m1), labs in rows.items():
        folds = {j: dict(_folded_amplitudes(delta, j, l, m1, "exact", lam))
                 for j in range(-2, 3) if l + j >= 0}
        edges[(l, m1)] = {(l + j, t) for j, fold in folds.items() for t in fold}
        closed = all(spec.predicate(BasisLabel(lt, t, m2))
                     for lt, t in edges[(l, m1)] for m2 in range(-lt, lt + 1))
        for lab in [] if closed else labs:
            for n in range(-2, 3):
                for j, qn in _couplings(n, l, lab.m2, "exact"):
                    for t, amp in folds[j].items():
                        target = BasisLabel(l + j, t, lab.m2 + n)
                        if spec.predicate(target):
                            continue
                        result.invariant = False
                        result.leakage.append({
                            "label": list(lab), "generator": f"Z{n}",
                            "target": list(target), "coefficient": repr(amp * qn)})
        # boundary transitions are probed at the row's minimal m2: the first
        # label of the row, as interior is sorted by (l, m1, m2)
        m2 = labs[0].m2
        for j, fold in folds.items():
            lt = l + j
            for target_m1 in {abs(m1 - 2), m1, abs(m1 + 2)}:
                if target_m1 > lt:
                    continue
                probe = BasisLabel(lt, target_m1, min(lt, max(-lt, m2)))
                if spec.predicate(probe) or not label_valid(delta, probe):
                    continue
                entry = {"from": [l, m1], "to": [lt, target_m1], "j": j}
                if target_m1 in fold:
                    entry.update({"reason": "leakage",
                                  "detail": "nonzero folded amplitude"})
                else:
                    entry.update(_boundary_reason(params, l, m1, j, target_m1))
                result.certificates.append(entry)
    result.connected = _connected(spec, lmax, edges)
    if result.invariant:
        _numeric_recheck(spec, interior)
    return result


def _numeric_recheck(spec: SubspaceSpec, labels: list[BasisLabel],
                     rounds: int = 3, tol: float = 1e-10) -> None:
    """Float re-evaluation of sampled labels, independent of the skeleton."""
    lam_num = tuple(complex(x) for x in spec.params.lam)
    stride = max(1, len(labels) // (20 * rounds))
    for r in range(rounds):
        for lab in labels[r::stride][:20]:
            for n in range(-2, 3):
                out = act_Z_on_basis(n, lab, spec.params, lam_num)
                for target, c in out.items():
                    if not spec.predicate(BasisLabel(*target)) and abs(c) > tol:
                        raise VerificationError(
                            f"numeric recheck found leakage {lab} -> {target}")


def _connected(spec: SubspaceSpec, lmax: int, edges: dict) -> bool:
    """Reachability of the span's (l, m1) rows along undirected skeleton edges."""
    nodes = sorted({(lab.l, lab.m1) for lab in spec.labels(lmax)})
    if not nodes:
        return True
    node_set = set(nodes)
    adj: dict[tuple, set] = {v: set() for v in nodes}
    for v, targets in edges.items():
        for t in targets:
            if t in node_set and t != v:
                adj[v].add(t)
                adj[t].add(v)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(node_set)


@dataclass
class StructureReport:
    title: str
    chain: list[dict]
    multiplicities: dict[int, list[int]]
    certificates: list[dict]
    notes: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "chain": self.chain,
            "multiplicities": {str(l): row for l, row in
                               sorted(self.multiplicities.items())},
            "certificates": self.certificates,
            "notes": self.notes,
            "metadata": self.metadata,
        }

    def lines(self) -> list[str]:
        out = [self.title]
        for member in self.chain:
            status = "invariant" if member["invariant"] else "NOT invariant"
            conn = "" if member.get("connected") is None else \
                (", connected" if member["connected"] else ", disconnected")
            out.append(f"  {member['name']}: {status}{conn} "
                       f"({member['checked_labels']} interior labels)")
        if self.multiplicities:
            header = self.metadata.get("multiplicity_columns", [])
            out.append("  multiplicities per l: " + ", ".join(header))
            for l, row in sorted(self.multiplicities.items()):
                out.append(f"    l = {l:2d}: " + "  ".join(str(x) for x in row))
        out.extend("  note: " + n for n in self.notes)
        return out


def _chain_entry(name: str, res: InvarianceResult) -> dict:
    return {"name": name, "invariant": res.invariant,
            "connected": res.connected,
            "checked_labels": res.checked_labels,
            "leakage": res.leakage}


# ---------------------------------------------------------------------------
# Even-k pairs


def even_k_report(k: int, lmax: int = 12) -> StructureReport:
    """The two-constituent decomposition at integral spectral parameter.

    V_B = span{m1 < k} sits inside V_{(-(k-1)/2,(k-1)/2,0),(0,0,0)} and
    V_A = span{m1 >= k} inside the dual module at the negated parameter;
    multiplicity tables are compared against the closed-form counts.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be even and at least 2")
    if lmax < k + 4:
        raise ValueError("lmax must be at least k + 4")
    half = Fraction(k - 1, 2)
    delta = (0, 0, 0)
    params_b = SeriesParams((-half, half, Fraction(0)), delta)
    params_a = SeriesParams((half, -half, Fraction(0)), delta)
    spec_b = SubspaceSpec(f"V_B (m1 < {k})", params_b,
                          lambda lab: lab.m1 < k)
    spec_a = SubspaceSpec(f"V_A (m1 >= {k})", params_a,
                          lambda lab: lab.m1 >= k)
    res_b = verify_invariant(spec_b, lmax)
    res_a = verify_invariant(spec_a, lmax)
    mult = {}
    mismatches = []
    for l in range(lmax + 1):
        m_a = max(0, 1 + (l - k) // 2)
        if l % 2:
            m_b = min(l // 2, (k - 2) // 2)
        else:
            m_b = min(1 + l // 2, k // 2)
        count_a = len({lab.m1 for lab in basis(params_a, l) if lab.m1 >= k})
        count_b = len({lab.m1 for lab in basis(params_b, l) if lab.m1 < k})
        total = multiplicity(delta, l)
        mult[l] = [m_a, m_b, total]
        if count_a != m_a or count_b != m_b or m_a + m_b != total:
            mismatches.append(l)
    report = StructureReport(
        title=f"even-k pair, k = {k}",
        chain=[_chain_entry(spec_a.name, res_a), _chain_entry(spec_b.name, res_b)],
        multiplicities=mult,
        certificates=res_a.certificates + res_b.certificates,
        metadata={"k": k, "lmax": lmax, "composition_length": 2,
                  "multiplicity_columns": ["m_A", "m_B", "total"],
                  "multiplicity_mismatches": mismatches},
    )
    if mismatches:
        report.notes.append(f"multiplicity mismatch at l = {mismatches}")
    report.notes.append("quotient of the B-side module by V_B is dual to V_A")
    return report


# ---------------------------------------------------------------------------
# Representations induced from a maximal parabolic


def degenerate_series_report(s, lmax: int = 12) -> StructureReport:
    """Ladder structure of the m1 = 0 subspace induced from a quasicharacter.

    The induction parameter s is normalized so the single surviving factor
    is 4s + j*l + (j + j^2)/2; the corresponding spectral parameter is
    lam(s) = (2s/3 - 1/2, 2s/3 + 1/2, -4s/3), where both transverse
    factors Lambda^(+-2) vanish identically on m1 = 0.  Reducibility then
    occurs exactly when a rung 4s + 2l + 3 or 4s - 2l + 1 vanishes, i.e.
    at quarter-integral s.
    """
    if lmax < 4:
        raise ValueError("lmax must be at least 4")
    exact = isinstance(s, (int, Fraction))
    sv = Fraction(s) if exact else complex(s)
    lam = (Fraction(2, 3) * sv - Fraction(1, 2),
           Fraction(2, 3) * sv + Fraction(1, 2),
           Fraction(-4, 3) * sv) if exact else \
          (2 * sv / 3 - 0.5, 2 * sv / 3 + 0.5, -4 * sv / 3)
    delta = (0, 0, 0)
    rungs = {}
    vanishing = []
    u1_zero = True
    for l in range(0, lmax + 1, 2):
        up = 4 * sv + 2 * l + 3
        down = 4 * sv - 2 * l + 1
        rungs[l] = [up, down]
        if exact:
            if up == 0:
                vanishing.append((l, +2))
            if l >= 2 and down == 0:
                vanishing.append((l, -2))
        for j in (-1, 1):
            for m2 in range(-min(l, 2), min(l, 2) + 1):
                if not act_U(j, WignerIndex(l, 0, m2), lam).is_zero():
                    u1_zero = False
        # cross-check the printed rung against the engine
        for j, r in ((2, up), (-2, down)):
            if l + j < 0:
                continue
            got = act_U(j, WignerIndex(l, 0, 0), lam).get(WignerIndex(l + j, 0, 0), 0)
            want = RadicalScalar.sqrt_rational(Fraction(2, 3)) * q(0, j, l, 0) * r
            if (got != want if exact else abs(got - want) > 1e-9 * (1 + abs(r))):
                raise VerificationError(f"rung mismatch at l={l}, j={j}")
    chain = []
    certificates = []
    if exact:
        params = SeriesParams(lam, delta)
        spec = SubspaceSpec("m1 = 0 (even l)", params, lambda lab: lab.m1 == 0)
        res = verify_invariant(spec, lmax)
        chain.append(_chain_entry(spec.name, res))
        certificates = res.certificates
    quarter = exact and (4 * sv).denominator == 1
    report = StructureReport(
        title=f"induced-from-parabolic ladder, s = {s}",
        chain=chain,
        multiplicities={l: [1] for l in range(0, lmax + 1, 2)},
        certificates=certificates,
        metadata={"s": str(s), "lambda": [str(x) for x in lam],
                  "rungs": {str(l): [str(r) for r in rs]
                            for l, rs in rungs.items()},
                  "vanishing_rungs": [list(v) for v in vanishing],
                  "quarter_integral": quarter,
                  "U_pm1_zero": u1_zero,
                  "multiplicity_columns": ["m"]},
    )
    report.notes.append("U_{+-1} vanishes identically on the subspace"
                        if u1_zero else "U_{+-1} does NOT vanish (unexpected)")
    if vanishing:
        report.notes.append(
            "reducible: rung vanishes at " +
            ", ".join(f"(l={l}, j={j:+d})" for l, j in vanishing))
    elif quarter:
        report.notes.append("quarter-integral s but no rung vanishes "
                            f"below l = {lmax}")
    if exact and sv == 0:
        report.notes.append("s = 0 coincides with the B-constituent of the "
                            "even-k pair at k = 2")
    return report


# ---------------------------------------------------------------------------
# The length-3 chain at k = 3


def k3_chain_report(lmax: int = 12) -> StructureReport:
    """The chain {0} c V1_odd c V1 c V at spectral parameter (-1, 1, 0).

    V1 is the span of the m1 = 1 labels, V1_odd its odd-l part; the
    invariance of V1_odd rests on an exact radical cancellation between
    the two Wigner components of each folded vector.  The dual picture has
    the m1 >= 3 span invariant at (1, -1, 0); the top quotient carries the
    symmetric-square-of-discrete-series metadata.
    """
    if lmax < 6:
        raise ValueError("lmax must be at least 6")
    delta = (1, 0, 1)
    params = SeriesParams((Fraction(-1), Fraction(1), Fraction(0)), delta)
    dual = SeriesParams((Fraction(1), Fraction(-1), Fraction(0)), delta)
    spec_odd = SubspaceSpec("V1_odd (m1 = 1, l odd)", params,
                            lambda lab: lab.m1 == 1 and lab.l % 2 == 1)
    spec_v1 = SubspaceSpec("V1 (m1 = 1)", params, lambda lab: lab.m1 == 1)
    spec_dual = SubspaceSpec("dual Sym^2 span (m1 >= 3)", dual,
                             lambda lab: lab.m1 >= 3)
    res_odd = verify_invariant(spec_odd, lmax)
    res_v1 = verify_invariant(spec_v1, lmax)
    res_dual = verify_invariant(spec_dual, lmax)
    mult = {}
    for l in range(lmax + 1):
        m_odd = 1 if (l % 2 == 1) else 0
        m_v1 = 1 if l >= 1 else 0
        mult[l] = [m_odd, m_v1, multiplicity(delta, l)]
    report = StructureReport(
        title="length-3 chain at spectral parameter (-1, 1, 0)",
        chain=[_chain_entry(spec_odd.name, res_odd),
               _chain_entry(spec_v1.name, res_v1),
               _chain_entry(spec_dual.name, res_dual)],
        multiplicities=mult,
        certificates=res_odd.certificates + res_v1.certificates
        + res_dual.certificates,
        metadata={"lmax": lmax, "composition_length": 3,
                  "multiplicity_columns": ["m_V1_odd", "m_V1", "total"],
                  "quotient": "symmetric square of the discrete series D2"},
    )
    cancels = [c for c in res_odd.certificates
               if c["reason"] == "folded-cancellation"]
    if cancels:
        report.notes.append("V1_odd closure uses radical cancellation on "
                            f"{len(cancels)} boundary transitions")
    return report


# ---------------------------------------------------------------------------
# The weight-12 symmetric-square subspace


def k23_subspace_report(lmax: int = 31) -> StructureReport:
    """The m1 >= 23 span invariant at spectral parameter (11, -11, 0).

    The first K-type of the subspace sits at l = 23; downward leakage is
    blocked by Lambda^(-2)((11,-11,0), l, 23) = 11 + 11 + 1 - 23 = 0.
    The remaining composition factors of the ambient module are left as
    unexplored-region metadata.
    """
    if lmax < 27:
        raise ValueError("lmax must be at least 27")
    delta = (1, 0, 1)
    params = SeriesParams((Fraction(11), Fraction(-11), Fraction(0)), delta)
    spec = SubspaceSpec("Sym^2 span (m1 >= 23)", params,
                        lambda lab: lab.m1 >= 23)
    res = verify_invariant(spec, lmax)
    mult = {}
    for l in range(max(0, 20), lmax + 1):
        m_sub = len({lab.m1 for lab in basis(params, l) if lab.m1 >= 23})
        mult[l] = [m_sub, multiplicity(delta, l)]
    report = StructureReport(
        title="symmetric-square subspace at spectral parameter (11, -11, 0)",
        chain=[_chain_entry(spec.name, res)],
        multiplicities=mult,
        certificates=res.certificates,
        metadata={"lmax": lmax, "first_k_type": 23,
                  "multiplicity_columns": ["m_sub", "total"],
                  "unexplored": "other composition factors of the ambient "
                                "module are not analyzed"},
    )
    if mult.get(23, [0])[0] == 1 and mult.get(22, [1])[0] == 0:
        report.notes.append("first nonzero K-type at l = 23 with "
                            "multiplicity 1")
    return report
