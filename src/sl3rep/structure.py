"""Invariant-subspace detection and composition-series reports.

A subspace here is a span of whole (l, m1) rows of symmetrized basis
vectors, selected by a predicate on `Row(l, m1)`: the Y generators act on
m2 alone.  Invariance is decided in exact arithmetic on the skeleton: by
pi(Z_n) v_{l,m1,m2} = sum_j q(n,j,l,m2) U_j v_{l,m1,.}, the coefficient
of v_{l+j,t,m2+n} is q(n,j,l,m2) times a folded amplitude A(j, l, m1 -> t)
free of n and m2, and the skeleton is the directed graph on (l, m1) rows
with an edge (l, m1) -> (l+j, t) wherever A != 0.  A is the lam-free
integer fold of `action` at lam = (n1, n2, -n1 - n2) / d, so an edge is
decided in integers: A = 0 iff p0 d + p1 n1 + p2 n2 = 0 for every term
(rad, p0, p1, p2, den) of the fold, the radicals being linearly independent;
a RadicalScalar is built only for a leaking amplitude.  Leakage is the edges
into rows outside the span, under a nonzero q; connectivity is
reachability along the edges; and each boundary transition that is no
edge gets a certificate naming the exact factor that vanishes: a Lambda
factor, a coupling coefficient, or a radical cancellation between the two
Wigner components of a folded basis vector.

The reports never claim irreducibility; they state invariance plus
reachability-connectedness of the row graph up to the window, and take
composition length as input metadata when echoing known chains.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import gcd
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .clebsch import q, q_core, q_float
from .errors import VerificationError
from .kernel import (_coupling_core, _fold_value, _folded_amplitudes, _integer_fold,
                     _lam_ints, _lambda_coeffs, act_U, label_components)
from .scalars import RadicalScalar, _canonical, check_lambda
from .series import BasisLabel, SeriesParams, label_valid, multiplicity
from .wigner import WignerIndex


class Row(NamedTuple):
    """The labels v_{l,m1,m2}, |m2| <= l, of one m1 in V_l."""

    l: int
    m1: int


def _rows(params: SeriesParams, l: int, keep: Callable[[Row], bool]) -> list[Row]:
    """The rows of V_l that `keep` admits, by m1; parity and the fold sign
    do not depend on m2."""
    return [Row(l, m1) for m1 in range(l + 1)
            if label_valid(params.delta, BasisLabel(l, m1, 0)) and keep(Row(l, m1))]


class SubspaceSpec(NamedTuple):
    """The span inside V_{lam,delta} of the valid rows `predicate` admits;
    `predicate` is called with one `Row`."""

    name: str
    params: SeriesParams
    predicate: Callable[[Row], bool]

    def rows(self, lmax: int) -> list[Row]:
        """The admitted valid rows with l <= lmax, by l and then m1."""
        return [row for l in range(lmax + 1)
                for row in _rows(self.params, l, self.predicate)]


# Records: ==, repr, vars() in __init__'s order; unhashable; copy and pickle skip __init__.
class InvarianceResult(SimpleNamespace):
    __reduce__ = object.__reduce__

    def __init__(self, invariant: bool, certificates: list[dict] | None = None,
                 leakage: list[dict] | None = None, connected: bool | None = None,
                 checked_labels: int = 0):
        super().__init__(invariant=invariant,
                         certificates=[] if certificates is None else certificates,
                         leakage=[] if leakage is None else leakage,
                         connected=connected, checked_labels=checked_labels)


def _boundary_reason(params: SeriesParams, l: int, m1: int, j: int,
                     target_m1: int) -> dict:
    """Name the vanishing factor of a transition (l, m1) -> (l+j, target_m1).

    Called only for transitions that are no skeleton edge: their folded
    amplitude, the sum over components src in {m1, -m1} and k = target_m1
    - src of weight * c_k * q(k, j, l, src) * Lam^(k)(lam, l, src), is zero.
    If a term has both factors nonzero, the terms cancel between the folded
    components; otherwise a Lambda factor or a q vanishes.  Each factor is
    read as an integer: q's core numerator and Lambda's numerator over d.
    """
    n1, n2, d = _lam_ints(params.lam)
    contributions = []
    for src, _w in label_components(params.delta, l, m1):
        k = target_m1 - src
        if k in (-2, 0, 2) and target_m1 <= l + j:
            a0, a1, a2 = _lambda_coeffs(k, j, l, src)
            contributions.append((src, k, q_core(k, j, l, src)[0],
                                  a0 * d + a1 * n1 + a2 * n2))
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


def _times_core(amp: RadicalScalar, num: int, rad: int, den: int) -> RadicalScalar:
    """amp * num sqrt(rad) / den, rad > 0 squarefree: a term c sqrt(a) goes to
    c g num / den sqrt(a rad / g^2), g = gcd(a, rad), which no other reaches."""
    return _canonical({a // (g := gcd(a, rad)) * (rad // g):
                       Fraction(c.numerator * num * g, c.denominator * den)
                       for a, c in amp.terms.items()})


def verify_invariant(spec: SubspaceSpec, lmax: int) -> InvarianceResult:
    """Exact closure check of a span under all Z and Y generators.

    The Y generators keep every row, so the Z generators decide.  Interior
    rows (l <= lmax - 2) are checked so no conclusion rests on window
    truncation; one pass over them reads each row's integer folds once per
    j and keeps the targets nonzero at lam: its skeleton edges.  An edge into
    a row outside the span under a nonzero q(n,j,l,m2) is leakage, listed
    label by label with coefficient q * amplitude (Z_-n's q read from its
    mirror); only the labels of a row with such an edge are expanded, and
    its amplitude is built once.  A boundary transition is certified as
    "leakage" if it is an edge and by `_boundary_reason` otherwise;
    connectivity is read from the same edges.  The float recheck of an
    invariant span samples 60 labels over the whole interior, with
    couplings where a fold leaves it.
    """
    if lmax < 2:
        raise ValueError("lmax must be at least 2")
    params = spec.params
    if not params.exact:
        raise ValueError("invariance certification needs a rational "
                         "spectral parameter")
    result = InvarianceResult(invariant=True)
    span = spec.rows(lmax)
    interior = [row for row in span if row.l <= lmax - 2]  # rows() walks l upward
    result.checked_labels = sum(2 * l + 1 for l, _ in interior)
    delta = tuple(params.delta)
    n1, n2, d = _lam_ints(params.lam)
    edges: dict[Row, set[Row]] = {}
    for row in interior:
        l, m1 = row
        folds = {j: {t: terms for t, terms in _integer_fold(delta, j, l, m1)
                     if any(p0 * d + p1 * n1 + p2 * n2 for _, p0, p1, p2, _ in terms)}
                 for j in range(-2, 3) if l + j >= 0}
        edges[row] = {Row(l + j, t) for j, fold in folds.items() for t in fold}
        out = [(j, t, _fold_value(terms, n1, n2, d)) for j, fold in folds.items()
               for t, terms in fold.items() if not spec.predicate(Row(l + j, t))]
        for m2, n, (j, t, amp) in product(range(-l, l + 1), range(-2, 3), out):
            num, rad, den = _coupling_core(n, j, l, m2)
            if num:
                result.invariant = False
                result.leakage.append({
                    "label": [l, m1, m2], "generator": f"Z{n}",
                    "target": [l + j, t, m2 + n],
                    "coefficient": repr(_times_core(amp, num, rad, den))})
        for j, fold in folds.items():
            lt = l + j
            for target_m1 in {abs(m1 - 2), m1, abs(m1 + 2)}:
                if target_m1 > lt or spec.predicate(Row(lt, target_m1)) \
                        or not label_valid(delta, BasisLabel(lt, target_m1, max(-lt, -l))):
                    continue
                entry = {"from": [l, m1], "to": [lt, target_m1], "j": j}
                if target_m1 in fold:
                    entry.update({"reason": "leakage",
                                  "detail": "nonzero folded amplitude"})
                else:
                    entry.update(_boundary_reason(params, l, m1, j, target_m1))
                result.certificates.append(entry)
    result.connected = _connected(set(span), edges)
    if result.invariant:
        _numeric_recheck(spec, interior)
    return result


def _numeric_recheck(spec: SubspaceSpec, rows: list[Row]) -> None:
    """Float re-evaluation, independent of the exact skeleton, of 60 labels of
    the rows, in (l, m1, m2) order at a stride of 1/60 of their number from the
    first; q(n, j, l, m2) is read only where a float fold leaves the span."""
    delta = tuple(spec.params.delta)
    try:
        lam = check_lambda(complex(x) for x in spec.params.lam)
    except OverflowError as exc:
        raise ValueError("the float recheck needs every lambda component "
                         "to fit a finite float") from exc
    starts = list(accumulate((2 * l + 1 for l, _ in rows), initial=0))
    stride = max(1, starts[-1] // 60)
    sampled = range(0, starts[-1], stride)[:60]
    for (l, m1), lo, hi in zip(rows, starts, starts[1:]):  # sampled[k] = k * stride
        m2s = [i - lo - l for i in sampled[-(-lo // stride):-(-hi // stride)]]
        out = [(j, t, amp) for j in range(-2, 3) if m2s and l + j >= 0
               for t, amp in _folded_amplitudes(delta, j, l, m1, "numeric", lam)
               if not spec.predicate(Row(l + j, t))]
        for m2, n, (j, t, amp) in product(m2s, range(-2, 3), out):
            if abs(amp * q_float(n, j, l, m2)) > 1e-10:
                raise VerificationError(
                    "numeric recheck found leakage "
                    f"{BasisLabel(l, m1, m2)} -> {BasisLabel(l + j, t, m2 + n)}")


def _connected(nodes: set[tuple], edges: dict) -> bool:
    """Reachability of the span's (l, m1) rows along undirected skeleton edges."""
    if not nodes:
        return True
    adj: dict[tuple, set] = {v: set() for v in nodes}
    for v, targets in edges.items():
        for t in targets:
            if t in nodes and t != v:
                adj[v].add(t)
                adj[t].add(v)
    stack = [next(iter(nodes))]
    seen = set(stack)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


class StructureReport(SimpleNamespace):
    __reduce__ = object.__reduce__

    def __init__(self, title: str, chain: list[dict],
                 multiplicities: dict[int, list[int]], certificates: list[dict],
                 notes: list[str] | None = None, metadata: dict | None = None):
        super().__init__(title=title, chain=chain, multiplicities=multiplicities,
                         certificates=certificates,
                         notes=[] if notes is None else notes,
                         metadata={} if metadata is None else metadata)

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


def _chain_report(title: str, lmax: int, members: list[tuple],
                  multiplicities: dict, metadata: dict
                  ) -> tuple[StructureReport, list[InvarianceResult]]:
    """Certify each (name, params, predicate) span in chain order; the report
    lists them and their certificates in that order."""
    results = [verify_invariant(SubspaceSpec(*member), lmax) for member in members]
    chain = [{"name": member[0], "invariant": res.invariant, "connected": res.connected,
              "checked_labels": res.checked_labels, "leakage": res.leakage}
             for member, res in zip(members, results)]
    certificates = [cert for res in results for cert in res.certificates]
    return StructureReport(title, chain, multiplicities, certificates,
                           metadata=metadata), results


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
    members = [(f"V_A (m1 >= {k})", SeriesParams((half, -half, Fraction(0)), delta),
                lambda row: row.m1 >= k),
               (f"V_B (m1 < {k})", SeriesParams((-half, half, Fraction(0)), delta),
                lambda row: row.m1 < k)]
    mult = {}
    mismatches = []
    for l in range(lmax + 1):
        m_a = max(0, 1 + (l - k) // 2)
        m_b = min(l // 2, (k - 2) // 2) if l % 2 else min(1 + l // 2, k // 2)
        total = multiplicity(delta, l)
        mult[l] = [m_a, m_b, total]
        rows = [len(_rows(params, l, keep)) for _, params, keep in members]
        if rows != [m_a, m_b] or m_a + m_b != total:
            mismatches.append(l)
    report, _ = _chain_report(
        f"even-k pair, k = {k}", lmax, members, mult,
        {"k": k, "lmax": lmax, "composition_length": 2,
         "multiplicity_columns": ["m_A", "m_B", "total"],
         "multiplicity_mismatches": mismatches})
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

    def lam_at(t):
        return (2 * t / 3 - Fraction(1, 2), 2 * t / 3 + Fraction(1, 2), -4 * t / 3)

    def rungs_at(t, l):
        return ((2, 4 * t + 2 * l + 3), (-2, 4 * t - 2 * l + 1))

    lam = lam_at(sv)
    ls = range(0, lmax + 1, 2)
    vanishing = [(l, j) for l in ls for j, r in rungs_at(sv, l)
                 if exact and l + j >= 0 and r == 0]
    # Each U_j amplitude on m1 = 0 is affine in lam, so affine in s: the
    # exact checks at s = 0 and 1 decide U_{+-1} and the rungs at every s.
    u1_zero = True
    for t in (Fraction(0), Fraction(1)):
        lam_t = lam_at(t)
        for l in ls:
            u1_zero &= not any(act_U(j, WignerIndex(l, 0, m2), lam_t)
                               for j in (-1, 1)
                               for m2 in range(-min(l, 2), min(l, 2) + 1))
            # cross-check the printed rung against the engine
            for j, r in rungs_at(t, l):
                if l + j < 0:
                    continue
                got = act_U(j, WignerIndex(l, 0, 0), lam_t).get(WignerIndex(l + j, 0, 0), 0)
                want = RadicalScalar.sqrt_rational(Fraction(2, 3)) * q(0, j, l, 0) * r
                if got != want:
                    raise VerificationError(f"rung mismatch at l={l}, j={j}")
    members = [("m1 = 0 (even l)", SeriesParams(lam, (0, 0, 0)),
                lambda row: row.m1 == 0)] if exact else []
    quarter = exact and (4 * sv).denominator == 1
    report, _ = _chain_report(
        f"induced-from-parabolic ladder, s = {s}", lmax, members,
        {l: [1] for l in ls},
        {"s": str(s), "lambda": [str(x) for x in lam],
         "rungs": {str(l): [str(r) for _, r in rungs_at(sv, l)] for l in ls},
         "vanishing_rungs": [list(v) for v in vanishing],
         "quarter_integral": quarter,
         "U_pm1_zero": u1_zero,
         "multiplicity_columns": ["m"]})
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
    mult = {l: [l % 2, int(l >= 1), multiplicity(delta, l)] for l in range(lmax + 1)}
    report, (res_odd, _, _) = _chain_report(
        "length-3 chain at spectral parameter (-1, 1, 0)", lmax,
        [("V1_odd (m1 = 1, l odd)", params,
          lambda row: row.m1 == 1 and row.l % 2 == 1),
         ("V1 (m1 = 1)", params, lambda row: row.m1 == 1),
         ("dual Sym^2 span (m1 >= 3)", dual, lambda row: row.m1 >= 3)],
        mult,
        {"lmax": lmax, "composition_length": 3,
         "multiplicity_columns": ["m_V1_odd", "m_V1", "total"],
         "quotient": "symmetric square of the discrete series D2"})
    cancels = sum(c["reason"] == "folded-cancellation" for c in res_odd.certificates)
    if cancels:
        report.notes.append("V1_odd closure uses radical cancellation on "
                            f"{cancels} boundary transitions")
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
    span = ("Sym^2 span (m1 >= 23)",
            SeriesParams((Fraction(11), Fraction(-11), Fraction(0)), delta),
            lambda row: row.m1 >= 23)
    mult = {l: [len(_rows(span[1], l, span[2])), multiplicity(delta, l)]
            for l in range(20, lmax + 1)}
    report, _ = _chain_report(
        "symmetric-square subspace at spectral parameter (11, -11, 0)", lmax,
        [span], mult,
        {"lmax": lmax, "first_k_type": 23,
         "multiplicity_columns": ["m_sub", "total"],
         "unexplored": "other composition factors of the ambient "
                       "module are not analyzed"})
    if mult.get(23, [0])[0] == 1 and mult.get(22, [1])[0] == 0:
        report.notes.append("first nonzero K-type at l = 23 with "
                            "multiplicity 1")
    return report
