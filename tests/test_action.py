"""Tests for the Lie algebra action: exact coefficients, change of basis,
bracket fidelity, ladder compositions, and matrix assembly."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl3rep import VerificationError, action
from sl3rep.action import (C_FACTORS, CONVENIENT_BASIS, GENERATOR_MATRICES,
                           STANDARD_BASIS, GaussRadical, LambdaPoly, act_U,
                           act_W, act_Z, act_Z_on_basis, assemble_matrix,
                           bracket_check, compose_poly, decompose_matrix,
                           decompose_standard_basis, generator_matrix_numeric,
                           lambda_factor, matrix_bracket, project_P,
                           project_P_poly, pwqu_exceptional, reassemble,
                           standard_basis_coords)
from sl3rep.clebsch import q
from sl3rep.ktvector import KTypeVector
from sl3rep.scalars import RadicalScalar
from sl3rep.series import BasisLabel, SeriesParams, basis, label_valid
from sl3rep.wigner import WignerIndex

ALL_TAGS = CONVENIENT_BASIS + STANDARD_BASIS


# ---------------------------------------------------------------------------
# generator matrices and change of basis


def test_generator_matrices_traceless():
    for tag in ALL_TAGS:
        m = generator_matrix_numeric(tag)
        assert abs(np.trace(m)) < 1e-14, tag


def test_convenient_basis_symmetry_types():
    # Y's are antisymmetric, Z's are symmetric (as complex matrices)
    for tag in ALL_TAGS:
        m = generator_matrix_numeric(tag)
        if tag.startswith("Y"):
            assert np.abs(m + m.T).max() < 1e-14
        elif tag.startswith("Z"):
            assert np.abs(m - m.T).max() < 1e-14


def test_decompose_reassemble_round_trip():
    for tag in ALL_TAGS:
        m = GENERATOR_MATRICES[tag]
        assert reassemble(decompose_matrix(m)) == m


def test_decompose_bracket_closure():
    # brackets of generators decompose exactly over the basis (so the
    # coordinates used by the bracket verifier are well defined)
    for a, b in [("X1", "X-1"), ("H1", "X1"), ("Y1", "Z2"), ("Z1", "Z-1")]:
        br = matrix_bracket(GENERATOR_MATRICES[a], GENERATOR_MATRICES[b])
        assert reassemble(decompose_matrix(br)) == br


def test_decompose_rejects_trace():
    bad = tuple(tuple(GaussRadical(1 if i == j else 0) for j in range(3))
                for i in range(3))
    with pytest.raises(ValueError):
        decompose_matrix(bad)


def test_standard_coords_known_values():
    h1 = dict(standard_basis_coords("H1"))
    assert h1["Z-2"] == GaussRadical(Fraction(1, 2))
    assert h1["Z2"] == GaussRadical(Fraction(1, 2))
    assert set(h1) == {"Z-2", "Z2"}
    h2 = dict(standard_basis_coords("H2"))
    assert h2["Z0"] == GaussRadical(RadicalScalar.sqrt_rational(6) * Fraction(1, 4))


# ---------------------------------------------------------------------------
# the main expansion


def reference_act_Z(n, idx, lam=None):
    """The unfactorized five-term sum over (j, k), one Lambda per term."""
    l, m1, m2 = idx
    out = KTypeVector()
    for j in range(-2, 3):
        lt = l + j
        if lt < 0 or abs(m2 + n) > lt:
            continue
        qn = q(n, j, l, m2)
        if qn.is_zero():
            continue
        for k in (-2, 0, 2):
            if abs(m1 + k) > lt:
                continue
            qk = q(k, j, l, m1)
            if qk.is_zero():
                continue
            scalar = C_FACTORS[k] * qk * qn
            form = lambda_factor(k, j, l, m1)
            if lam is None:
                c = form * scalar
            elif all(isinstance(x, (int, Fraction)) for x in lam):
                c = form.eval_exact(lam) * scalar
            else:
                c = form.eval(lam) * float(scalar)
            out.add_term(WignerIndex(lt, m1 + k, m2 + n), c)
    return out


def _small_fractions():
    return st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def spectral_parameters(draw):
    """None (symbolic), a rational triple (exact) or a complex one (numeric)."""
    mode = draw(st.sampled_from(("symbolic", "exact", "numeric")))
    if mode == "symbolic":
        return None
    if mode == "exact":
        a, b = draw(_small_fractions()), draw(_small_fractions())
        return (a, b, -a - b)
    part = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    a = complex(draw(part), draw(part))
    b = complex(draw(part), draw(part))
    return (a, b, -a - b)


def assert_same_vector(got, want, lam):
    """Exact equality in the exact modes, 1e-13 relative in numeric mode."""
    assert set(got.terms) == set(want.terms)
    for t, c in want.items():
        if lam is not None and not all(isinstance(x, (int, Fraction))
                                       for x in lam):
            assert isinstance(got[t], complex)
            assert abs(got[t] - c) <= 1e-13 * abs(c), t
        else:
            assert type(got[t]) is type(c) and got[t] == c, t


@given(st.integers(-2, 2), st.integers(0, 12), st.data(), spectral_parameters())
@settings(max_examples=150, deadline=None)
def test_act_z_matches_unfactorized_reference(n, l, data, lam):
    m1 = data.draw(st.integers(-l, l))
    m2 = data.draw(st.integers(-l, l))
    idx = WignerIndex(l, m1, m2)
    assert_same_vector(act_Z(n, idx, lam), reference_act_Z(n, idx, lam), lam)


def test_amplitude_cache_key_includes_mode():
    # 11, Fraction(11) and 11+0j hash alike; the cached amplitudes of one
    # mode must never be handed out in the other
    idx = WignerIndex(23, 23, 0)
    exact = (11, -11, 0)
    numeric = (11 + 0j, -11 + 0j, 0j)
    params = SeriesParams((Fraction(11), Fraction(-11), Fraction(0)), (1, 0, 1))
    label = BasisLabel(23, 23, 0)
    for first, second, kind in ((exact, numeric, complex),
                                (numeric, exact, RadicalScalar)):
        action._u_amplitudes.cache_clear()
        action._folded_amplitudes.cache_clear()
        act_Z(1, idx, first)
        act_Z_on_basis(1, label, params, first)
        for vec in (act_Z(1, idx, second), act_Z_on_basis(1, label, params, second)):
            assert vec and all(isinstance(c, kind) for _, c in vec.items())


def test_act_z_modes_agree():
    lam = (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6))
    lamf = tuple(complex(x) for x in lam)
    for n in range(-2, 3):
        for idx in [WignerIndex(2, 1, -1), WignerIndex(3, 0, 2)]:
            sym = act_Z(n, idx)
            exact = act_Z(n, idx, lam)
            num = act_Z(n, idx, lamf)
            for t, form in sym.items():
                assert form.eval_exact(lam) == exact.get(t)
                assert num.get(t) == pytest.approx(float(exact.get(t)), abs=1e-12)
            assert set(sym.terms) == set(exact.terms) >= set(num.terms)


def test_act_z_index_shifts():
    for t in act_Z(1, WignerIndex(3, 1, 0)):
        assert t.m2 == 1
        assert t.m1 in (-1, 1, 3)
        assert 1 <= t.l <= 5
    with pytest.raises(ValueError):
        act_Z(3, WignerIndex(1, 0, 0))


def test_act_u_is_single_column_of_act_z():
    # U_j collects the k-sum of the main expansion at fixed j with the
    # q(n,...) factor stripped
    lam = (Fraction(0), Fraction(1, 4), Fraction(-1, 4))
    idx = WignerIndex(3, 1, 1)
    l, m1, m2 = idx
    for j in range(-2, 3):
        u = act_U(j, idx, lam)
        for t, c in u.items():
            assert t.l == l + j and t.m2 == m2


def test_lambda_factor_values():
    f = lambda_factor(-2, 1, 4, 2)  # l1 - l2 + 1 - m1
    assert f.eval((2.0, 0.5, -2.5)) == pytest.approx(2.0 - 0.5 + 1 - 2)
    f = lambda_factor(2, 1, 4, 2)
    assert f.eval((2.0, 0.5, -2.5)) == pytest.approx(2.0 - 0.5 + 1 + 2)
    f = lambda_factor(0, 2, 3, 1)  # l1 + l2 - 2 l3 + jl + (j + j^2)/2
    assert f.eval((2.0, 0.5, -2.5)) == pytest.approx(2.0 + 0.5 + 5.0 + 6 + 3)
    with pytest.raises(ValueError):
        lambda_factor(1, 0, 2, 0)


# ---------------------------------------------------------------------------
# folded basis action


# every parity class; the first four keep their test ids
DELTAS = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1),
          (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]


@pytest.mark.parametrize("delta", DELTAS)
@given(st.data(), spectral_parameters())
@settings(max_examples=40, deadline=None)
def test_fold_consistency_and_unfolding(delta, data, lam):
    # act_Z_on_basis must give valid labels only, and agree with the
    # unfactorized expansion acting on the unfolded Wigner sum
    from sl3rep.action import _expand_label
    params = SeriesParams(lam or (0, 0, 0), delta)
    labels = [lab for l in range(9) for lab in basis(params, l)]
    label = data.draw(st.sampled_from(labels))
    n = data.draw(st.integers(-2, 2))
    folded = act_Z_on_basis(n, label, params, lam)
    assert all(label_valid(delta, lab) for lab in folded)
    raw = KTypeVector()
    for idx, w in _expand_label(delta, label):
        raw = raw + reference_act_Z(n, idx, lam).scaled(w)
    rebuilt = KTypeVector()
    for lab, c in folded.items():
        for idx, w in _expand_label(delta, lab):
            rebuilt.add_term(idx, c * w)
    diff = raw - rebuilt
    if lam is not None and isinstance(lam[0], complex):
        scale = max((abs(c) for c in raw.terms.values()), default=1.0)
        assert all(abs(c) <= 1e-12 * scale for c in diff.terms.values())
    else:
        assert diff.is_zero()


def test_fold_inconsistency_is_a_verification_error(monkeypatch):
    # a -m1 component carrying the wrong fold sign cannot fold consistently
    def wrong_sign(delta, l, m1):
        return ((0, 2),) if m1 == 0 else ((m1, 1), (-m1, -action.label_sign(delta, l)))

    monkeypatch.setattr(action, "label_components", wrong_sign)
    action._folded_amplitudes.cache_clear()
    params = SeriesParams((Fraction(1, 3), Fraction(1, 6), Fraction(-1, 2)),
                          (0, 0, 0))
    try:
        with pytest.raises(VerificationError, match="fold inconsistency"):
            act_Z_on_basis(0, BasisLabel(4, 2, 0), params)
    finally:
        action._folded_amplitudes.cache_clear()


def test_act_z_on_basis_rejects_invalid_label():
    params = SeriesParams((0, 0, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        act_Z_on_basis(0, BasisLabel(2, 0, 0), params)


# ---------------------------------------------------------------------------
# projections and ladder compositions


def test_projection_modes_agree():
    lam = (Fraction(1, 2), Fraction(-1, 2), 0)
    v = act_Z(1, WignerIndex(4, 1, 1), lam)
    for j in range(-2, 3):
        assert (project_P(4, j, v) - project_P_poly(4, j, v)).is_zero()


def test_projection_window_enforced():
    v = KTypeVector({WignerIndex(7, 0, 0): 1})
    with pytest.raises(ValueError):
        project_P(4, 0, v)
    with pytest.raises(ValueError):
        project_P_poly(4, 0, v)


def test_pw_equals_q_times_u():
    # P^l_j ( W^{l+j}_{n,m2} v ) = q(n,j,l,m2) U_j v, exactly
    lam = (Fraction(2, 3), Fraction(-1, 6), Fraction(-1, 2))
    for l in range(2, 5):
        for m1 in range(-l, l + 1):
            for m2 in range(-l, l + 1):
                v = KTypeVector({WignerIndex(l, m1, m2): 1})
                for n in range(-2, 3):
                    for j in range(-2, 3):
                        if l + j < 0 or abs(m2) > l + j:
                            continue
                        try:
                            w = act_W(n, l + j, m2, v, lam)
                        except ValueError:
                            continue
                        lhs = project_P(l, j, w)
                        rhs = act_U(j, WignerIndex(l, m1, m2),
                                    lam).scaled(q(n, j, l, m2))
                        assert (lhs - rhs).is_zero(), (l, m1, m2, n, j)


def test_w_normalization_guard():
    # L = 0 target forces a zero normalization argument for n != 0
    v = KTypeVector({WignerIndex(2, 0, 0): 1})
    with pytest.raises(ValueError):
        act_W(2, 0, 0, v)


def test_exceptional_set():
    assert pwqu_exceptional(5) == {(0, 0), (0, 1), (1, -1)}
    assert pwqu_exceptional(40) == {(0, 0), (0, 1), (1, -1)}


def test_exceptional_pairs_have_vanishing_q():
    for l, j in pwqu_exceptional(5):
        for n in range(-2, 3):
            for m2 in range(-l, l + 1):
                assert q(n, j, l, m2).is_zero()


# ---------------------------------------------------------------------------
# bracket fidelity


def test_bracket_check_samples():
    idx = WignerIndex(2, 1, -1)
    for a, b in [("X1", "X-1"), ("H1", "H2"), ("X2", "X-3"), ("Y2", "Z1")]:
        assert bracket_check(a, b, idx)


def test_bracket_via_compose_poly():
    # same identity through the unflattened LambdaPoly path, plus a
    # negative control with the wrong bracket sign
    idx = WignerIndex(2, 0, 1)
    a, b = "X1", "X-1"
    v = KTypeVector({idx: LambdaPoly.constant(1)})
    comm = compose_poly(a, compose_poly(b, v)) - compose_poly(b, compose_poly(a, v))
    br = decompose_matrix(matrix_bracket(GENERATOR_MATRICES[a],
                                         GENERATOR_MATRICES[b]))
    rhs = KTypeVector()
    wrong = KTypeVector()
    for t, c in br.items():
        part = compose_poly(t, v)
        for tgt, p in part.items():
            rhs.add_term(tgt, p * c)
            wrong.add_term(tgt, p * (-c))
    assert (comm - rhs).is_zero()
    assert not (comm - wrong).is_zero()


# the slot of each monomial (e1, e2) of lam1^e1 lam2^e2 in an integer
# accumulator of the bracket verifier
MONOMIAL_SLOTS = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (2, 0): 3, (1, 1): 4, (0, 2): 5}


def rationals_of_poly_vector(vec: KTypeVector) -> dict:
    """(target, monomial slot, radicand, i-power) -> nonzero rational."""
    out = {}
    for target, p in vec.items():
        for e, c in p.monos.items():
            for im, part in ((0, c.re), (1, c.im)):
                for rad, r in part.terms.items():
                    out[(tuple(target), MONOMIAL_SLOTS[e], rad, im)] = r
    return out


def rationals_of_accumulator(acc) -> dict:
    return {(tuple(target), slot, rad, im): Fraction(v, acc.den)
            for (target, rad, im), entry in acc.entries.items()
            for slot, v in enumerate(entry) if v}


@st.composite
def wigner_indices(draw, lmax):
    l = draw(st.integers(0, lmax))
    return WignerIndex(l, draw(st.integers(-l, l)), draw(st.integers(-l, l)))


@given(wigner_indices(5), st.sampled_from(CONVENIENT_BASIS),
       st.sampled_from(CONVENIENT_BASIS))
@example(WignerIndex(1, 0, 1), "Y3", "Y1")  # i * i
@settings(max_examples=80, deadline=None)
def test_integer_composition_matches_compose_poly(idx, a, b):
    # pi(A) pi(B) D on integer vectors equals the LambdaPoly reference,
    # monomial by monomial, radicand by radicand and i-power by i-power
    acc = action._DegreeTwoSum()
    acc.compose(a, action._apply_flat(b, idx), 1)
    want = compose_poly(a, compose_poly(b, KTypeVector({idx: LambdaPoly.constant(1)})))
    assert rationals_of_accumulator(acc) == rationals_of_poly_vector(want)


@pytest.fixture
def fresh_bracket_caches():
    action._apply_flat.cache_clear()
    action._pair_defect_zero.cache_clear()
    yield
    action._apply_flat.cache_clear()
    action._pair_defect_zero.cache_clear()


@pytest.mark.parametrize("l", range(4))
def test_bracket_check_detects_one_wrong_amplitude(l, monkeypatch,
                                                   fresh_bracket_caches):
    # one integer entry of the U_2 amplitudes of D^l_{0,.} off by 1
    idx = WignerIndex(l, 0, 0)
    assert bracket_check("X1", "X-1", idx)
    exact = action._u_terms

    def skewed(j, l_, m1):
        amps = exact(j, l_, m1)
        if (j, l_, m1) != (2, l, 0):
            return amps
        (k, ((rad, im, p0, *rest), *terms)), *others = amps
        return ((k, ((rad, im, p0 + 1, *rest), *terms)), *others)

    monkeypatch.setattr(action, "_u_terms", skewed)
    action._apply_flat.cache_clear()
    action._pair_defect_zero.cache_clear()
    assert not bracket_check("X1", "X-1", idx)


@pytest.mark.parametrize("l", range(4))
def test_bracket_check_detects_negated_bracket(l, monkeypatch,
                                               fresh_bracket_caches):
    idx = WignerIndex(l, 0, 0)
    assert bracket_check("X1", "X-1", idx)
    exact = action._bracket_coords_flat

    def negated(a, b):
        return tuple((t, tuple((rad, im, -p0, -p1, -p2, den)
                               for rad, im, p0, p1, p2, den in c))
                     for t, c in exact(a, b))

    monkeypatch.setattr(action, "_bracket_coords_flat", negated)
    action._pair_defect_zero.cache_clear()
    assert not bracket_check("X1", "X-1", idx)


def test_bracket_caches_are_bounded():
    assert action._pair_defect_zero.cache_info().maxsize == 200_000
    assert action._apply_flat.cache_info().maxsize == 200_000


# ---------------------------------------------------------------------------
# standard-basis action and matrix assembly


@pytest.mark.parametrize("lam", [(0.3, 0.1, 5.0), (0.3,), (0.3, -0.3),
                                 (0.3, 0.1, -0.4, 0.0)])
def test_decompose_standard_basis_rejects_bad_lambda(lam):
    with pytest.raises(ValueError, match="summing to zero"):
        decompose_standard_basis("X1", WignerIndex(2, 1, 0), lam)


def test_decompose_standard_basis_numeric():
    lam = (0.3 + 0.1j, -0.2, -0.1 - 0.1j)
    idx = WignerIndex(2, 1, 0)
    sym = decompose_standard_basis("X1", idx)
    num = decompose_standard_basis("X1", idx, lam)
    for t, p in sym.items():
        got = num.get(t, 0.0)
        assert got == pytest.approx(p.eval((lam[0], lam[1])), abs=1e-12)


def test_assemble_matrix_consistency():
    params = SeriesParams((0.5j, -0.5j, 0), (0, 0, 0))
    mat = assemble_matrix(params, "Z1", 4)
    pos = mat.label_index()
    dense = mat.dense()
    lab = BasisLabel(2, 2, 0)
    vec = act_Z_on_basis(1, lab, params, params.lam)
    col = dense[:, pos[lab]]
    for target, c in vec.items():
        if target.l <= 4:
            assert col[pos[BasisLabel(*target)]] == pytest.approx(complex(c))
    # truncation recorded for sources within 2 of the window edge
    assert all(src.l >= 3 and lt > 4 for src, lt in mat.truncated)
    assert mat.truncated


def test_assemble_matrix_y1_diagonal():
    params = SeriesParams((0, 0, 0), (0, 0, 0))
    mat = assemble_matrix(params, "Y1", 3)
    dense = mat.dense()
    assert np.abs(dense - np.diag(np.diag(dense))).max() == 0
    for lab, i in mat.label_index().items():
        assert dense[i, i] == 1j * lab.m2


def test_action_matrix_json_schema():
    params = SeriesParams((Fraction(1, 2), 0, Fraction(-1, 2)), (1, 1, 0))
    doc = assemble_matrix(params, "Z-2", 3).to_json()
    assert set(doc) == {"metadata", "labels", "blocks"}
    md = doc["metadata"]
    assert md["generator"] == "Z-2" and md["lmax"] == 3
    assert md["lambda"] == [[0.5, 0.0], [0.0, 0.0], [-0.5, 0.0]]
    assert md["delta"] == [1, 1, 0]
    for block in doc["blocks"]:
        assert len(block["entries"]) == len(block["rows"]) * len(block["cols"])
        assert all(len(e) == 2 for e in block["entries"])
