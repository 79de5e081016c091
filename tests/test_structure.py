"""Tests for invariant-subspace certification and the structure reports."""

import cmath
import copy
import hashlib
import pickle
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl3rep import VerificationError, action, kernel, structure
from sl3rep.action import act_Z_on_basis
from sl3rep.clebsch import in_range, q, q_core
from sl3rep.kernel import act_U, label_components, lambda_factor
from sl3rep.scalars import ONE, ZERO, LambdaForm, RadicalScalar, check_lambda
from sl3rep.series import (BasisLabel, SeriesParams, basis, label_valid,
                           multiplicity)
from sl3rep.structure import (InvarianceResult, Row, SubspaceSpec,
                              degenerate_series_report, even_k_report,
                              k3_chain_report, k23_subspace_report,
                              verify_invariant)
from sl3rep.wigner import WignerIndex

from cg_identities import C_FACTORS


def test_whole_module_is_invariant():
    params = SeriesParams((Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)),
                          (0, 0, 0))
    spec = SubspaceSpec("everything", params, lambda row: True)
    res = verify_invariant(spec, 8)
    assert res.invariant
    assert res.connected
    assert not res.leakage
    assert res.checked_labels == sum(len(basis(params, l)) for l in range(7))


def test_records_copy_and_pickle_by_their_attributes():
    # copy and pickle rebuild a record from its attributes, never by calling
    # __init__ without its arguments (the benchmark's self-test deep-copies
    # reports); the twin is equal, with the same repr and attribute order
    leaking = SubspaceSpec("m1 = 0", SeriesParams(
        (Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15)), (0, 0, 0)), lambda row: row.m1 == 0)
    for record in (verify_invariant(leaking, 4), even_k_report(2, 6)):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record
            assert repr(twin) == repr(record) and list(vars(twin)) == list(vars(record))


def test_generic_parameter_has_no_proper_invariant_span():
    # at a generic rational parameter the m1 = 0 span leaks
    params = SeriesParams((Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15)),
                          (0, 0, 0))
    spec = SubspaceSpec("m1 = 0", params, lambda row: row.m1 == 0)
    res = verify_invariant(spec, 8)
    assert not res.invariant
    assert res.leakage


def test_predicate_is_called_with_rows_only():
    # a span is a union of (l, m1) rows: the predicate never sees an m2,
    # and row[1] is m1, as for the predicates that index their argument;
    # the span leaks at the first lambda and is invariant at the second
    seen = []
    for lam in [(Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15)),
                (Fraction(11), Fraction(-11), Fraction(0))]:
        spec = SubspaceSpec("m1 >= 23", SeriesParams(lam, (1, 0, 1)),
                            lambda row: seen.append(row) or row[1] >= 23)
        assert verify_invariant(spec, 27).invariant == (lam[0] == 11)
    assert seen
    assert all(type(row) is Row and row[1] == row.m1 for row in seen)


def test_verify_invariant_needs_exact_parameter():
    params = SeriesParams((0.5j, -0.5j, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        verify_invariant(SubspaceSpec("x", params, lambda row: True), 6)
    with pytest.raises(ValueError):
        verify_invariant(
            SubspaceSpec("x", SeriesParams((0, 0, 0), (0, 0, 0)),
                         lambda row: True), 1)


@pytest.mark.parametrize("k", [2, 4])
def test_even_k_reports(k):
    rep = even_k_report(k, lmax=k + 6)
    assert all(member["invariant"] for member in rep.chain)
    assert not rep.metadata["multiplicity_mismatches"]
    for l, (m_a, m_b, total) in rep.multiplicities.items():
        assert m_a + m_b == total
    assert rep.metadata["composition_length"] == 2
    doc = rep.to_json()
    assert set(doc) == {"title", "chain", "multiplicities", "certificates",
                        "notes", "metadata"}
    assert rep.lines()


def test_even_k_validation():
    with pytest.raises(ValueError):
        even_k_report(3)
    with pytest.raises(ValueError):
        even_k_report(4, lmax=6)


def test_degenerate_series_regular_point():
    rep = degenerate_series_report(Fraction(1, 3), lmax=8)
    assert rep.metadata["U_pm1_zero"]
    assert not rep.metadata["vanishing_rungs"]
    assert not rep.metadata["quarter_integral"]
    assert rep.chain and rep.chain[0]["invariant"]


def test_degenerate_series_quarter_integral():
    rep = degenerate_series_report(Fraction(-7, 4), lmax=8)
    assert rep.metadata["quarter_integral"]
    assert [2, 2] in rep.metadata["vanishing_rungs"]
    assert any("reducible" in n for n in rep.notes)


def test_degenerate_series_rungs_printed():
    rep = degenerate_series_report(Fraction(1, 2), lmax=6)
    # rung values 4s + 2l + 3 and 4s - 2l + 1 at s = 1/2
    assert rep.metadata["rungs"]["0"] == ["5", "3"]
    assert rep.metadata["rungs"]["4"] == ["13", "-5"]


def test_degenerate_series_numeric_parameter():
    rep = degenerate_series_report(0.3 + 0.2j, lmax=6)
    assert rep.metadata["U_pm1_zero"]
    assert not rep.chain  # no exact certification without a rational s


@given(st.integers(-3000, 3000), st.integers(-3000, 3000))
@example(123, 456)  # 1 + lam1 - lam2 rounds to 7.9e-17 there
@settings(max_examples=60, deadline=None)
def test_degenerate_series_u_pm1_vanishes_at_complex_s(re, im):
    # the report decides U_{+-1} and the rungs exactly at s = 0 and 1; the
    # numeric engine at the complex lam(s) agrees up to rounding, where the
    # transverse factors 1 -+ m1 + lam1 - lam2 vanish at m1 = 0
    s = complex(re, im) / 1000
    rep = degenerate_series_report(s, lmax=4)
    assert rep.metadata["U_pm1_zero"] is True
    assert "U_{+-1} vanishes identically on the subspace" in rep.notes
    lam = (2 * s / 3 - 0.5, 2 * s / 3 + 0.5, -4 * s / 3)
    for l in range(0, 13, 2):
        for j in (-1, 1):
            for m2 in range(-min(l, 2), min(l, 2) + 1):
                for c in act_U(j, WignerIndex(l, 0, m2), lam).terms.values():
                    assert abs(c) <= 1e-15 * (1 + abs(s)), (l, j, m2, c)
        for j, r in ((2, 4 * s + 2 * l + 3), (-2, 4 * s - 2 * l + 1)):
            if l + j < 0:
                continue
            got = act_U(j, WignerIndex(l, 0, 0), lam).get(WignerIndex(l + j, 0, 0), 0)
            want = float(RadicalScalar.sqrt_rational(Fraction(2, 3)) * q(0, j, l, 0)) * r
            # relative, but absolute near a vanishing rung
            assert cmath.isclose(got, want, rel_tol=1e-13,
                                 abs_tol=1e-13 * (1 + abs(s))), (l, j, got, want)


def test_degenerate_series_rung_mismatch_is_caught(monkeypatch):
    # a wrong closed form of the rungs is refused at a rational and at a
    # complex s, both through the exact checks at s = 0 and 1
    monkeypatch.setattr(structure, "q", lambda *idx: 2 * q(*idx))
    for s in (Fraction(1, 3), 0.3 + 0.2j):
        with pytest.raises(VerificationError, match="rung mismatch"):
            degenerate_series_report(s, lmax=4)


def test_degenerate_series_reports_a_u_pm1_amplitude_above_rounding(monkeypatch):
    # 1e-6 added to every amplitude of U_{+-1}: the exact check, made at
    # s = 0 and 1 for every s, reports any amplitude the engine returns
    exact = structure.act_U

    def offset(j, idx, lam):
        out = exact(j, idx, lam)
        if j in (-1, 1):
            l, m1, m2 = idx
            for k in (-2, 0, 2):
                if max(abs(m1 + k), abs(m2)) <= l + j:
                    out.add_term(WignerIndex(l + j, m1 + k, m2), 1e-6)
        return out

    for s in (0.123 + 0.456j, 0.3 + 0.2j):
        assert degenerate_series_report(s, lmax=4).metadata["U_pm1_zero"] is True
        monkeypatch.setattr(structure, "act_U", offset)
        rep = degenerate_series_report(s, lmax=4)
        monkeypatch.setattr(structure, "act_U", exact)
        assert rep.metadata["U_pm1_zero"] is False
        assert "U_{+-1} does NOT vanish (unexpected)" in rep.notes


def test_k3_chain():
    rep = k3_chain_report(lmax=8)
    assert [m["invariant"] for m in rep.chain] == [True, True, True]
    assert rep.metadata["composition_length"] == 3
    assert any("radical cancellation" in n for n in rep.notes)
    names = [m["name"] for m in rep.chain]
    assert any("odd" in n for n in names)


def test_k23_subspace():
    rep = k23_subspace_report(lmax=27)
    assert rep.chain[0]["invariant"]
    assert rep.metadata["first_k_type"] == 23
    assert rep.multiplicities[22][0] == 0
    assert rep.multiplicities[23][0] == 1
    assert rep.multiplicities[27][0] == 3  # m1 in {23, 25, 27}


def test_certificates_name_reasons():
    rep = even_k_report(2, lmax=8)
    reasons = {c["reason"] for c in rep.certificates}
    assert reasons <= {"lambda-zero", "q-zero", "folded-cancellation",
                       "out-of-range"}
    assert "lambda-zero" in reasons


# ---------------------------------------------------------------------------
# The per-(label, n) decision, kept as the reference for verify_invariant


# lam_1, lam_2, lam_3 as forms: Lambda at these is the symbolic Lambda
UNITS = (LambdaForm(c1=ONE), LambdaForm(c2=ONE), LambdaForm(c3=ONE))


def reference_boundary_reason(params, l, m1, j, target_m1):
    """Classify the folded transition (l, m1) -> (l+j, target_m1) from its
    own sum of c_k q Lam over the Wigner components; None if it is nonzero."""
    lam = params.lam
    contributions = []
    for src, w in label_components(params.delta, l, m1):
        for k in (-2, 0, 2):
            if src + k != target_m1 or target_m1 > l + j:
                continue
            qk = q(k, j, l, src)
            lamval = lambda_factor(k, j, l, src, UNITS).eval_exact(lam)
            contributions.append((src, k, w, qk, lamval))
    if not contributions:
        return {"reason": "out-of-range", "detail": "no coupling path"}
    nonzero = [(src, k, w, qk, lv) for src, k, w, qk, lv in contributions
               if not qk.is_zero() and not lv.is_zero()]
    if not nonzero:
        for src, k, w, qk, lv in contributions:
            if lv.is_zero():
                return {"reason": "lambda-zero",
                        "detail": f"Lambda^({k})(lam, {l}, {src}) = 0"}
        return {"reason": "q-zero",
                "detail": f"q({contributions[0][1]}, {j}, {l}, "
                          f"{contributions[0][0]}) = 0"}
    total = ZERO
    for src, k, w, qk, lv in nonzero:
        total = total + (C_FACTORS[k] * qk * lv) * w
    if total.is_zero():
        paths = ", ".join(f"(src m1 = {src}, shift {k})" for src, k, *_ in nonzero)
        return {"reason": "folded-cancellation",
                "detail": f"radical cancellation between {paths}"}
    return None


def reference_labels(spec, lmax):
    """The labels of the span with l <= lmax, from the basis listing."""
    return [lab for l in range(lmax + 1) for lab in basis(spec.params, l)
            if spec.predicate(Row(lab.l, lab.m1))]


def reference_connected(spec, lmax):
    nodes = sorted({(lab.l, lab.m1) for lab in reference_labels(spec, lmax)})
    if not nodes:
        return True
    node_set = set(nodes)
    adj = {v: set() for v in nodes}
    for (l, m1) in nodes:
        if l > lmax - 2:
            continue
        for j in range(-2, 3):
            for target_m1 in {abs(m1 - 2), m1, abs(m1 + 2)}:
                t = (l + j, target_m1)
                if t not in node_set or t == (l, m1):
                    continue
                if reference_boundary_reason(spec.params, l, m1, j, target_m1) is None:
                    adj[(l, m1)].add(t)
                    adj[t].add((l, m1))
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(node_set)


def reference_verify_invariant(spec, lmax):
    """verify_invariant label by label: act_Z_on_basis once per (label, n),
    certificates and connectivity from reference_boundary_reason.  It does
    not run the numeric recheck."""
    result = InvarianceResult(invariant=True)
    interior = reference_labels(spec, lmax - 2)
    result.checked_labels = len(interior)
    for lab in interior:
        for n in range(-2, 3):
            for target, c in act_Z_on_basis(n, lab, spec.params).items():
                if spec.predicate(Row(target.l, target.m1)):
                    continue
                result.invariant = False
                result.leakage.append({
                    "label": list(lab), "generator": f"Z{n}",
                    "target": list(target), "coefficient": repr(c)})
    seen_rows = set()
    for lab in interior:
        if lab[:2] in seen_rows:
            continue
        seen_rows.add(lab[:2])
        l, m1 = lab.l, lab.m1
        for j in range(-2, 3):
            lt = l + j
            if lt < 0:
                continue
            for target_m1 in {abs(m1 - 2), m1, abs(m1 + 2)}:
                if target_m1 > lt:
                    continue
                probe = BasisLabel(lt, target_m1, min(lt, max(-lt, lab.m2)))
                if spec.predicate(Row(lt, target_m1)) \
                        or not label_valid(spec.params.delta, probe):
                    continue
                reason = reference_boundary_reason(spec.params, l, m1, j, target_m1)
                entry = {"from": [l, m1], "to": [lt, target_m1], "j": j}
                entry.update(reason or {"reason": "leakage",
                                        "detail": "nonzero folded amplitude"})
                result.certificates.append(entry)
    result.connected = reference_connected(spec, lmax)
    return result


DELTAS = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1),
          (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]

# predicates on a row and a cut c
PREDICATES = {
    "all": lambda row, c: True,
    "m1 >= c": lambda row, c: row.m1 >= c,
    "m1 < c": lambda row, c: row.m1 < c,
    "m1 = c": lambda row, c: row.m1 == c,
    "m1 = c, l odd": lambda row, c: row.m1 == c and row.l % 2 == 1,
    "l <= c": lambda row, c: row.l <= c,
    "m1 >= l - c": lambda row, c: row.m1 >= row.l - c,
    "m1 >= c or l even": lambda row, c: row.m1 >= c or row.l % 2 == 0,
}


@st.composite
def spectral_parameters(draw):
    """A generic rational lambda, or (h, -h, 0) with h a half-integer, where
    Lambda^(-2) or Lambda^(2) vanishes on the row m1 = |2h| + 1."""
    if draw(st.booleans()):
        h = Fraction(draw(st.integers(-10, 10)), 2)
        return (h, -h, Fraction(0))
    part = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    a, b = draw(part), draw(part)
    return (a, b, -a - b)


def assert_same_result(got, want):
    assert (got.invariant, got.checked_labels, got.connected) == \
        (want.invariant, want.checked_labels, want.connected)
    assert got.leakage == want.leakage
    assert got.certificates == want.certificates


@given(st.sampled_from(DELTAS), spectral_parameters(), st.integers(3, 9),
       st.sampled_from(sorted(PREDICATES)), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
# the invariant V1_odd of the k = 3 chain, with folded cancellations
@example((1, 0, 1), (Fraction(-1), Fraction(1), Fraction(0)), 8, "m1 = c, l odd", 1)
# the invariant V_A of the even-k pair at k = 2, and its leaking complement
@example((0, 0, 0), (Fraction(1, 2), Fraction(-1, 2), Fraction(0)), 8, "m1 >= c", 2)
@example((0, 0, 0), (Fraction(1, 2), Fraction(-1, 2), Fraction(0)), 8, "m1 < c", 2)
# a staircase of rows along m1 = l
@example((1, 1, 1), (Fraction(1, 3), Fraction(0), Fraction(-1, 3)), 5, "m1 >= l - c", 2)
def test_skeleton_pass_matches_per_label_reference(delta, lam, lmax, kind, cut):
    pred = PREDICATES[kind]
    spec = SubspaceSpec(kind, SeriesParams(lam, delta), lambda row: pred(row, cut))
    assert_same_result(verify_invariant(spec, lmax),
                       reference_verify_invariant(spec, lmax))


@st.composite
def row_spans(draw):
    """A parity, a window lmax in 3..9 and any set of its valid rows."""
    delta = draw(st.sampled_from(DELTAS))
    lmax = draw(st.integers(3, 9))
    valid = [Row(l, m1) for l in range(lmax + 1) for m1 in range(l + 1)
             if label_valid(delta, BasisLabel(l, m1, 0))]
    return delta, lmax, draw(st.frozensets(st.sampled_from(valid)))


@given(row_spans(), spectral_parameters())
@settings(max_examples=40, deadline=None)
def test_any_row_span_matches_per_label_reference(span, lam):
    delta, lmax, rows = span
    spec = SubspaceSpec("rows", SeriesParams(lam, delta), lambda row: row in rows)
    assert spec.rows(lmax) == sorted(rows)
    assert_same_result(verify_invariant(spec, lmax),
                       reference_verify_invariant(spec, lmax))


def test_verify_invariant_reads_only_the_skeleton_at_exact_lambda(monkeypatch):
    # no act_Z_on_basis or act_Z call, through whichever sl3rep module holds
    # them (the numeric recheck reads the float couplings and folded
    # amplitudes), and _boundary_reason only for transitions with no edge
    real_reason = structure._boundary_reason
    reasons, act_calls = [], []

    def recording_reason(params, l, m1, j, target_m1):
        fold = kernel._folded_amplitudes(tuple(params.delta), j, l, m1, "exact",
                                         tuple(params.lam))
        assert target_m1 not in dict(fold)
        reasons.append((l, m1, j, target_m1))
        return real_reason(params, l, m1, j, target_m1)

    for real in (action.act_Z_on_basis, kernel.act_Z):
        def recording(*args, _real=real):
            act_calls.append(args)
            return _real(*args)

        for mod in [m for name, m in sys.modules.items()
                    if name.startswith("sl3rep") and m is not None]:
            for attr in [a for a, val in vars(mod).items() if val is real]:
                monkeypatch.setattr(mod, attr, recording)
    monkeypatch.setattr(structure, "_boundary_reason", recording_reason)
    params = SeriesParams((Fraction(-1), Fraction(1), Fraction(0)), (1, 0, 1))
    spec = SubspaceSpec("V1_odd", params, lambda row: row.m1 == 1 and row.l % 2)
    res = verify_invariant(spec, 8)
    assert res.invariant and res.connected
    assert len(reasons) == len(res.certificates) > 0
    leaking = SubspaceSpec("m1 >= 23", SeriesParams(
        (Fraction(9), Fraction(-9), Fraction(0)), (1, 0, 1)), lambda row: row.m1 >= 23)
    reasons.clear()
    res = verify_invariant(leaking, 25)
    assert not res.invariant
    assert len(reasons) == sum(c["reason"] != "leakage" for c in res.certificates)
    assert any(c["reason"] == "leakage" for c in res.certificates)
    assert act_calls == []


def test_numeric_recheck_samples_a_sixtieth_stride_from_label_0(monkeypatch):
    # the labels of the interior rows in (l, m1, m2) order: 60 of them at a
    # stride of 1/60 of their number from the first, so the samples reach
    # the top of the window.  A zero amplitude outside the span on every
    # row makes the recheck read q(n, 0, l, m2) at each sampled label; one
    # row per l here, so (l, m2) names a label
    real_fold, real_q, sampled = structure._folded_amplitudes, structure.q_float, []

    def with_a_zero_outside(delta, j, l, m1, mode, lam):
        out = real_fold(delta, j, l, m1, mode, lam)
        return out + ((0, 0j),) if mode == "numeric" and j == 0 else out

    def recording(n, j, l, m2):
        if n == -2 and j == 0:
            sampled.append((l, m2))
        return real_q(n, j, l, m2)

    monkeypatch.setattr(structure, "_folded_amplitudes", with_a_zero_outside)
    monkeypatch.setattr(structure, "q_float", recording)
    params = SeriesParams((Fraction(-1), Fraction(1), Fraction(0)), (1, 0, 1))
    assert verify_invariant(SubspaceSpec("V1", params, lambda row: row.m1 == 1), 30).invariant
    labels = [lab for l in range(29) for lab in basis(params, l) if lab.m1 == 1]
    stride = len(labels) // 60
    assert stride > 1
    assert sampled == [(lab.l, lab.m2) for lab in labels[::stride][:60]]
    assert len(sampled) == 60 and sampled[-1][0] == 28


def test_numeric_recheck_catches_a_skeleton_with_dropped_edges(monkeypatch):
    # an exact skeleton missing the downward edges of the m1 >= 23 span
    # reports that leaking span invariant; the float recheck must refuse it
    real = structure._integer_fold

    def drop_downward(delta, j, l, m1):
        out = real(delta, j, l, m1)
        if m1 >= 23:
            out = tuple((t, terms) for t, terms in out if t >= 23)
        return out

    monkeypatch.setattr(structure, "_integer_fold", drop_downward)
    params = SeriesParams((Fraction(9), Fraction(-9), Fraction(0)), (1, 0, 1))
    spec = SubspaceSpec("m1 >= 23", params, lambda row: row.m1 >= 23)
    with pytest.raises(VerificationError,
                       match=r"l=23, m1=23, m2=-23\) -> BasisLabel\(l=25, m1=21, m2=-25"):
        verify_invariant(spec, 25)


def test_numeric_recheck_catches_dropped_edges_past_the_first_third(monkeypatch):
    # the span l <= 12 leaks upward from its rows at l = 11 and 12 only,
    # whose labels start past 3/5 of the interior's; an exact skeleton
    # missing those edges reports it invariant, and the float recheck must
    # refuse it from a sample in the top rows
    real = structure._integer_fold

    def drop_upward(delta, j, l, m1):
        return () if l + j > 12 else real(delta, j, l, m1)

    monkeypatch.setattr(structure, "_integer_fold", drop_upward)
    params = SeriesParams((Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15)), (0, 0, 0))
    spec = SubspaceSpec("l <= 12", params, lambda row: row.l <= 12)
    with pytest.raises(VerificationError,
                       match=r"l=11, m1=2, m2=-6\) -> BasisLabel\(l=13, m1=2, m2=-8"):
        verify_invariant(spec, 14)


# ---------------------------------------------------------------------------
# The float recheck label by label, kept as the reference for _numeric_recheck


def reference_numeric_recheck(spec, rows):
    """_numeric_recheck label by label: every nonzero float coupling of each
    of 60 labels of the rows, at a stride of 1/60 of their number from the
    first, times every float folded amplitude, tested against the span."""
    delta = tuple(spec.params.delta)
    lam = check_lambda(complex(x) for x in spec.params.lam)
    labels = [BasisLabel(l, m1, m2) for l, m1 in rows for m2 in range(-l, l + 1)]
    for l, m1, m2 in labels[::max(1, len(labels) // 60)][:60]:
        for n in range(-2, 3):
            for j, qn in kernel._couplings(n, l, m2, "numeric"):
                for t, amp in structure._folded_amplitudes(delta, j, l, m1, "numeric", lam):
                    if abs(amp * qn) > 1e-10 and not spec.predicate(Row(l + j, t)):
                        raise VerificationError(
                            "numeric recheck found leakage "
                            f"{BasisLabel(l, m1, m2)} -> {BasisLabel(l + j, t, m2 + n)}")


def recheck_outcome(check, spec, rows):
    """None if `check` passes, else the message it raises."""
    try:
        check(spec, rows)
    except VerificationError as exc:
        return str(exc)
    return None


@given(st.sampled_from(DELTAS), spectral_parameters(), st.integers(3, 14),
       st.sampled_from(sorted(PREDICATES)), st.integers(0, 9), st.integers(0, 10 ** 6),
       st.sampled_from([1.0, 0.5j, 2e-10, 1e-10, 1e-12]))
@settings(max_examples=60, deadline=None)
# leaking at a stride above 1, and invariant with folded cancellations
@example((0, 0, 0), (Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15)), 14,
         "m1 >= c", 2, 0, 1.0)
@example((1, 0, 1), (Fraction(-1), Fraction(1), Fraction(0)), 14,
         "m1 = c, l odd", 1, 12345, 0.5j)
# an invariant span, and an amplitude whose products with the couplings
# q(n, 0, 3, m2) lie between 1e-11 and the 1e-10 threshold
@example((1, 0, 1), (Fraction(-1), Fraction(1), Fraction(0)), 8,
         "m1 = c, l odd", 1, 12, 1e-10)
def test_numeric_recheck_matches_the_per_label_loop(delta, lam, lmax, kind, cut,
                                                    pick, amp):
    # as the folds are, and with the float amplitude amp injected into the
    # fold of one row toward a row outside the span (the pick-th such
    # transition): both pass, or both raise the same message
    pred = PREDICATES[kind]
    spec = SubspaceSpec(kind, SeriesParams(lam, delta), lambda row: pred(row, cut))
    rows = [row for row in spec.rows(lmax) if row.l <= lmax - 2]
    checks = (structure._numeric_recheck, reference_numeric_recheck)
    outcome = recheck_outcome(checks[0], spec, rows)
    assert outcome == recheck_outcome(checks[1], spec, rows)
    outside = [(row, j, t) for row in rows for j in range(-2, 3)
               for t in range(row.l + j + 1) if not spec.predicate(Row(row.l + j, t))]
    if not outside:
        return
    (l, m1), j, t = outside[pick % len(outside)]
    real = structure._folded_amplitudes

    def injected(delta, j_, l_, m1_, mode, lam):
        out = real(delta, j_, l_, m1_, mode, lam)
        return out + ((t, amp),) if (mode, j_, l_, m1_) == ("numeric", j, l, m1) else out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_folded_amplitudes", injected)
        outcome = recheck_outcome(checks[0], spec, rows)
        assert outcome == recheck_outcome(checks[1], spec, rows)


# ---------------------------------------------------------------------------
# Leakage coefficients from integer coupling cores


# every in-range index with l <= 6 whose coupling is nonzero
NONZERO_INDICES = [idx for idx in product(range(-2, 3), range(-2, 3), range(7), range(-6, 7))
                   if in_range(*idx) and q_core(*idx)[0]]


@st.composite
def amplitudes(draw):
    """Up to four terms over signed radicands, imaginary ones included."""
    radicands = st.integers(-210, 210).filter(bool)
    return RadicalScalar({draw(radicands): draw(st.fractions(max_denominator=60))
                          for _ in range(draw(st.integers(0, 4)))})


@st.composite
def coupling_indices(draw):
    l = draw(st.integers(0, 60))
    return (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), l, draw(st.integers(-l, l)))


@given(amplitudes(), coupling_indices())
@settings(max_examples=40, deadline=None)
def test_times_core_is_the_general_product_with_q(amp, idx):
    # on every in-range index with l <= 6 and one drawn up to l = 60: the
    # same value, the same printed coefficient, and canonical terms
    for n, j, l, m2 in NONZERO_INDICES + [idx]:
        num, rad, den = q_core(n, j, l, m2)
        if not num:
            continue
        got, want = structure._times_core(amp, num, rad, den), amp * q(n, j, l, m2)
        assert got == want and repr(got) == repr(want)
        assert got.terms == RadicalScalar(got.terms).terms


def test_leakage_cores_of_z_minus_n_are_read_from_the_mirror(monkeypatch):
    # the leakage listing computes the cores of Z_n only, n > 0 or n = 0 with
    # m2 >= 0: reading those of Z_-n computes no new core, in the kernel or
    # here; and each coefficient it lists, Z_-n's included, is the folded
    # amplitude times q(n, j, l, m2) read directly
    spec = SubspaceSpec("m1 >= 23", SeriesParams(
        (Fraction(9), Fraction(-9), Fraction(0)), (1, 0, 1)), lambda row: row.m1 >= 23)
    want = verify_invariant(spec, 25).leakage
    assert len(want) > 100 and len({entry["generator"] for entry in want}) == 5
    reads = []
    monkeypatch.setattr(structure, "_boundary_reason", lambda *args: {})
    for mod in (kernel, structure):
        monkeypatch.setattr(mod, "q_core", lambda *idx: reads.append(idx) or q_core(*idx))
    assert verify_invariant(spec, 25).leakage == want
    assert reads and all(n > 0 or (n == 0 and m2 >= 0) for n, _, _, m2 in reads)
    for entry in want:
        (l, m1, m2), (lt, t, _) = entry["label"], entry["target"]
        n, j = int(entry["generator"][1:]), lt - l
        amp = dict(kernel._folded_amplitudes((1, 0, 1), j, l, m1, "exact", spec.params.lam))[t]
        assert entry["coefficient"] == repr(amp * q(n, j, l, m2))


# sha256 of repr(vars(result)) of the certify workload's leaking controls,
# taken when each coefficient was the general product amp * q
PINNED_LEAKAGE = [
    ("m1 >= 23", 9, "8e62103f7cd0cf9adce5d0a66faea49999410db3ca098025d4ab013793756735"),
    ("m1 >= 23", 10, "28fffd46a4b47cc3cf280cf0a7319dcce178263996b5c353d16f526b097f31a7"),
    ("m1 >= 23", 12, "10db9443d22b443db7a0db45491cc16f98705069be6d276e49df4fed7898c1e6"),
    ("m1 >= 23", 13, "dc7f275ec506801c3057047a93913119097cea414a836f3b1e6fa5d7c3506c25"),
    ("m1 = 1", Fraction(1, 2), "f4229c91bf4f4f89a6875210737ebcd5d6e65a4f861f61710b9768f5c6e349e6"),
    ("m1 = 1", Fraction(1), "90fbb20ad88accfd2d097d9371ea315d9ff8329636429ccdbe03cbbdf223a53f"),
    ("m1 = 1", Fraction(3, 2), "7129187c57f56ccfaf92dd3cde198b4bd308e3243ed4b6096dc34293741d2eae"),
    ("m1 = 1", Fraction(2), "3f86b13a7498b5c4cb03457bacc7664162daf03c9345982ffe2fbffa8145ff3d"),
]


@pytest.mark.parametrize("kind, value, digest", PINNED_LEAKAGE,
                         ids=[f"{kind} at {value}" for kind, value, _ in PINNED_LEAKAGE])
def test_leaking_control_results_are_pinned(kind, value, digest):
    # m1 >= 23 at (a, -a, 0) to lmax 25, and m1 = 1 at (t - 1, 1 - t, 0) to
    # lmax 5, as the certify benchmark runs them
    if kind == "m1 >= 23":
        lam, lmax, pred = (Fraction(value), Fraction(-value), Fraction(0)), 25, \
            lambda row: row.m1 >= 23
    else:
        lam, lmax, pred = (value - 1, 1 - value, Fraction(0)), 5, lambda row: row.m1 == 1
    res = verify_invariant(SubspaceSpec(kind, SeriesParams(lam, (1, 0, 1)), pred), lmax)
    assert not res.invariant
    assert hashlib.sha256(repr(vars(res)).encode()).hexdigest() == digest


def test_float_recheck_needs_lambda_to_fit_a_float():
    big = Fraction(10) ** 400
    # the m1 = 0 span of the ladder is invariant, so it is rechecked
    with pytest.raises(ValueError, match="the float recheck needs every lambda "
                                         "component to fit a finite float"):
        degenerate_series_report(big, 4)
    # a leaking span is still reported: no recheck runs
    leaking = SubspaceSpec("m1 >= 23", SeriesParams((big, -big, Fraction(0)), (1, 0, 1)),
                           lambda row: row.m1 >= 23)
    res = verify_invariant(leaking, 25)
    assert not res.invariant and res.leakage
    assert degenerate_series_report(Fraction(10) ** 300, 4).chain[0]["invariant"]
