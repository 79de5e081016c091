"""Tests for the Lie algebra action: exact coefficients, change of basis,
bracket fidelity, ladder compositions, and matrix assembly."""

import contextlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl3rep import VerificationError, action
from sl3rep.action import (C_FACTORS, CONVENIENT_BASIS, GENERATOR_MATRICES,
                           STANDARD_BASIS, Y_TAGS, Z_TAGS, act_U, act_W,
                           act_Z, act_Z_on_basis, assemble_matrix,
                           bracket_check, compose_poly, decompose_matrix,
                           decompose_standard_basis, generator_matrix_numeric,
                           lambda_factor, matrix_bracket, project_P,
                           pwqu_exceptional, reassemble, standard_basis_coords)
from sl3rep.clebsch import q
from sl3rep.ktvector import KTypeVector
from sl3rep.scalars import ZERO, LambdaForm, RadicalScalar
from sl3rep.series import BasisLabel, SeriesParams, basis, label_valid
from sl3rep.wigner import WignerIndex, right_derivative_Y

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
    bad = tuple(tuple(RadicalScalar.from_rational(1 if i == j else 0)
                      for j in range(3)) for i in range(3))
    with pytest.raises(ValueError):
        decompose_matrix(bad)


def test_standard_coords_known_values():
    h1 = dict(standard_basis_coords("H1"))
    assert h1["Z-2"] == RadicalScalar.from_rational(Fraction(1, 2))
    assert h1["Z2"] == RadicalScalar.from_rational(Fraction(1, 2))
    assert set(h1) == {"Z-2", "Z2"}
    h2 = dict(standard_basis_coords("H2"))
    assert h2["Z0"] == RadicalScalar.sqrt_rational(6) * Fraction(1, 4)


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


@given(st.integers(0, 12), st.data(), spectral_parameters())
@settings(max_examples=150, deadline=None)
def test_lambda_factor_at_lam_is_the_form_evaluated(l, data, lam):
    # one formula: at a rational lam the exact value of the form, at a
    # complex one its complex value, as LambdaForm.eval computes it
    m1 = data.draw(st.integers(-l, l))
    for k in (-2, 0, 2):
        for j in range(-2, 3):
            form = lambda_factor(k, j, l, m1)
            assert isinstance(form, LambdaForm)
            got = lambda_factor(k, j, l, m1, lam)
            if lam is None:
                assert got == form
            elif all(isinstance(x, Fraction) for x in lam):
                assert got == form.eval_exact(lam)
            else:
                assert type(got) is complex and got == form.eval(lam)


BAD_LAMBDAS = [
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), (1, -1), (1, -1, 0, 0),
    (0.3 + 0.1j, -0.2, 0.5), (0.3j, -0.3j), (1j, -1j, 0, 0), (float("nan"), 0.0, 0.0),
]


@pytest.mark.parametrize("lam", BAD_LAMBDAS)
def test_entry_points_reject_a_lam_that_is_no_zero_sum_triple(lam):
    params = SeriesParams((0, 0, 0), (0, 0, 0))
    calls = [
        lambda: act_Z(1, WignerIndex(2, 1, 0), lam),
        lambda: act_U(1, WignerIndex(2, 1, 0), lam),
        # U_-2 of an l = 0 index is no vector: no Lambda is ever evaluated
        lambda: act_U(-2, WignerIndex(0, 0, 0), lam),
        lambda: act_Z_on_basis(1, BasisLabel(2, 0, 0), params, lam),
        lambda: decompose_standard_basis("X1", WignerIndex(2, 1, 0), lam),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="triple summing to zero"):
            call()


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


def project_P_poly(l: int, j: int, v: KTypeVector) -> KTypeVector:
    """Reference projector: the Casimir-polynomial realization of project_P."""
    out = KTypeVector()
    for idx, c in v.items():
        lp = idx[0]
        if not l - 2 <= lp <= l + 2:
            raise ValueError("support must lie within [l-2, l+2]")
        factor = Fraction(1)
        for k in range(-2, 3):
            if k == j or l + k < 0:
                continue
            num = lp * (lp + 1) - (l + k) * (l + k + 1)
            den = (l + j) * (l + j + 1) - (l + k) * (l + k + 1)
            factor *= Fraction(num, den)
        if factor:
            out.add_term(idx, c * float(factor) if isinstance(c, complex)
                         else c * factor)
    return out


INDICES_L60 = st.integers(0, 60).flatmap(
    lambda l: st.tuples(st.just(l), st.integers(-l, l), st.integers(-l, l)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), INDICES_L60)
@example(2, (60, 0, 60))
@example(3, (60, -60, -60))
@example(1, (7, 2, -7))
def test_exact_y_matches_float_y(i, lmm):
    # the exact Y action and right_derivative_Y read one step table; the
    # exact value, rounded once, is within 4 ulp of unit * sqrt(square)
    idx = WignerIndex(*lmm)
    exact = action._apply_poly_cached(f"Y{i}", idx)
    floats = right_derivative_Y(i, idx)
    assert set(exact) == set(floats)
    for target, form in exact.items():
        assert form == LambdaForm.constant(form.const)
        got, want = complex(form.const), floats[target]
        for a, b in ((got.real, want.real), (got.imag, want.imag)):
            assert abs(a - b) <= 4 * math.ulp(b), (target, got, want)


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


class LambdaPoly:
    """Polynomial in (l1, l2) with RadicalScalar coefficients, l3 eliminated
    through l1 + l2 + l3 = 0: the degree-2 reference that the integer
    bracket verifier is checked against."""

    def __init__(self, monos: dict | None = None):
        self.monos = {e: c for e, c in (monos or {}).items() if not c.is_zero()}

    @classmethod
    def constant(cls, c) -> "LambdaPoly":
        if not isinstance(c, RadicalScalar):
            c = RadicalScalar.from_rational(c)
        return cls({(0, 0): c})

    @classmethod
    def from_form(cls, f: LambdaForm) -> "LambdaPoly":
        const, a1, a2 = f.canonical()
        return cls({(0, 0): const, (1, 0): a1, (0, 1): a2})

    def is_zero(self) -> bool:
        return not self.monos

    def __add__(self, other):
        if not isinstance(other, LambdaPoly):
            other = LambdaPoly.constant(other)
        out = dict(self.monos)
        for e, c in other.monos.items():
            out[e] = out.get(e, ZERO) + c
        return LambdaPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LambdaPoly({e: -c for e, c in self.monos.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LambdaForm):
            other = LambdaPoly.from_form(other)
        elif not isinstance(other, LambdaPoly):
            other = LambdaPoly.constant(other)
        out: dict = {}
        for (a1, a2), ca in self.monos.items():
            for (b1, b2), cb in other.monos.items():
                e = (a1 + b1, a2 + b2)
                out[e] = out.get(e, ZERO) + ca * cb
        return LambdaPoly(out)

    __rmul__ = __mul__


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
            for rad, r in c.terms.items():
                rad, im = (-rad, 1) if rad < 0 else (rad, 0)
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


def compose_flat(acc, outer: str, inner: tuple, sign: int) -> None:
    """Add sign * pi(outer) applied to the flat vector `inner` to `acc`."""
    for mid, b in inner:
        for target, a in action._apply_flat(outer, mid):
            acc.add(target, a, b, sign)


def reference_bracket_defect(tag_a: str, tag_b: str, idx: WignerIndex) -> bool:
    """Whether [pi(A), pi(B)] - pi([A, B]) vanishes on D_idx, both
    compositions expanded in full: the direct path that the factored
    verifier is checked against."""
    acc = action._DegreeTwoSum()
    compose_flat(acc, tag_a, action._apply_flat(tag_b, idx), 1)
    compose_flat(acc, tag_b, action._apply_flat(tag_a, idx), -1)
    for t, c in action._bracket_coords_flat(tag_a, tag_b):
        terms = action._int_terms(LambdaForm.constant(c))
        for target, p in action._apply_flat(t, idx):
            acc.add(target, p, terms, -1)
    return acc.is_zero()


@given(wigner_indices(5), st.sampled_from(CONVENIENT_BASIS),
       st.sampled_from(CONVENIENT_BASIS))
@example(WignerIndex(1, 0, 1), "Y3", "Y1")  # i * i
@settings(max_examples=80, deadline=None)
def test_integer_composition_matches_compose_poly(idx, a, b):
    # pi(A) pi(B) D on integer vectors equals the LambdaPoly reference,
    # monomial by monomial, radicand by radicand and i-power by i-power
    acc = action._DegreeTwoSum()
    compose_flat(acc, a, action._apply_flat(b, idx), 1)
    want = compose_poly(a, compose_poly(b, KTypeVector({idx: LambdaPoly.constant(1)})))
    assert rationals_of_accumulator(acc) == rationals_of_poly_vector(want)


# every cache that holds exact action data of the bracket verifier; _u_terms
# is left out, as the perturbations below replace it
BRACKET_CACHES = ("_apply_poly_cached", "_y_row", "_apply_flat", "_uu_terms",
                  "_m2_identity_holds", "_zz_weights", "_pair_defect_zero")


def clear_bracket_caches():
    for name in BRACKET_CACHES:
        getattr(action, name).cache_clear()


@contextlib.contextmanager
def perturbed(kind: str, *where):
    """The action with one defect put in, every bracket cache cleared:

    * ("amplitude", j, l, m1): the first integer of the first U_j amplitude
      of D^l_{m1,.} off by 1;
    * ("y_unit", i, l, m, t): the unit of the `y_steps` row of Y_i from
      D^l_{.,m} to D^l_{.,t} negated;
    * ("bracket",): every bracket coordinate negated;
    * ("none",): the action as it is.
    """
    name, original = None, None
    if kind == "amplitude":
        name, original = "_u_terms", action._u_terms

        def replacement(j, l, m1):
            amps = original(j, l, m1)
            if (j, l, m1) != where or not amps:
                return amps
            (k, ((rad, im, p0, *rest), *terms)), *others = amps
            return ((k, ((rad, im, p0 + 1, *rest), *terms)), *others)
    elif kind == "y_unit":
        name, original = "y_steps", action.y_steps

        def replacement(i, l, m):
            return tuple((t, -unit if (i, l, m, t) == where else unit, square)
                         for t, unit, square in original(i, l, m))
    elif kind == "bracket":
        name, original = "_bracket_coords_flat", action._bracket_coords_flat

        def replacement(a, b):
            return tuple((t, -c) for t, c in original(a, b))
    if name:
        setattr(action, name, replacement)
    clear_bracket_caches()
    try:
        yield
    finally:
        if name:
            setattr(action, name, original)
        clear_bracket_caches()


CONVENIENT_PAIRS = list(itertools.combinations(CONVENIENT_BASIS, 2))

# (pair, index, perturbation) where the perturbation makes the defect nonzero
FLIPPED = [
    (("Y2", "Z1"), WignerIndex(2, 0, 1), ("y_unit", 2, 2, 1, 0)),
    (("Y2", "Z1"), WignerIndex(2, 0, 0), ("bracket",)),
    (("Z-1", "Z1"), WignerIndex(2, 0, 1), ("amplitude", 2, 2, 0)),
    (("Z-1", "Z1"), WignerIndex(2, 0, 1), ("y_unit", 1, 2, 1, 1)),
    (("Z-1", "Z1"), WignerIndex(2, 0, 1), ("bracket",)),
    (("Z0", "Z1"), WignerIndex(2, 0, 1), ("amplitude", 0, 2, 0)),
    (("Y1", "Y2"), WignerIndex(2, 0, 0), ("y_unit", 2, 2, 0, 1)),
]


@st.composite
def perturbations(draw, pair: tuple, idx: WignerIndex):
    """A perturbation of the action that the defect of pair on idx may
    read: at the K-type of idx or one a U_j step away, mostly at its own m1
    or m2, and a Y unit of the pair's own Y if it has one."""
    kind = draw(st.sampled_from(("none", "amplitude", "y_unit", "bracket")))
    if kind == "bracket" or kind == "none":
        return (kind,)
    l = max(0, idx.l + draw(st.sampled_from((0, 0, 0, -2, -1, 1, 2))))
    own = idx.m1 if kind == "amplitude" else idx.m2
    m = draw(st.sampled_from((own, own, own + 1, own - 1, own + 2, own - 2)))
    m = max(-l, min(l, m))
    if kind == "amplitude":
        return kind, draw(st.integers(-2, 2)), l, m
    i = draw(st.sampled_from([Y_TAGS[t] for t in pair if t in Y_TAGS] or [1, 2, 3]))
    rows = action.y_steps(i, l, m)
    return kind, i, l, m, draw(st.sampled_from([t for t, _, _ in rows] or [m]))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_factored_bracket_matches_direct_reference(data):
    # the same verdict as the direct composition on l <= 6, with the action
    # as it is and with one wrong amplitude, Y unit or bracket
    pair = data.draw(st.sampled_from(CONVENIENT_PAIRS))
    idx = data.draw(wigner_indices(6))
    perturbation = data.draw(perturbations(pair, idx))
    with perturbed(*perturbation):
        assert action._bracket_defect_zero(*pair, idx) == \
            reference_bracket_defect(*pair, idx)


@pytest.mark.parametrize("pair,idx,perturbation", FLIPPED)
def test_perturbation_flips_both_verdicts(pair, idx, perturbation):
    assert action._bracket_defect_zero(*pair, idx)
    with perturbed(*perturbation):
        assert not reference_bracket_defect(*pair, idx)
        assert not action._bracket_defect_zero(*pair, idx)
        assert not bracket_check(*pair, idx)


def test_yz_verdict_is_free_of_the_amplitudes():
    # the (Y, Z) identity holds for any U_j amplitudes, so a wrong one
    # leaves both verdicts true
    pair, idx = ("Y2", "Z1"), WignerIndex(2, 0, 1)
    with perturbed("amplitude", 0, 2, 0):
        assert reference_bracket_defect(*pair, idx)
        assert action._bracket_defect_zero(*pair, idx)


@pytest.fixture
def fresh_bracket_caches():
    clear_bracket_caches()
    yield
    clear_bracket_caches()


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
    clear_bracket_caches()
    assert not bracket_check("X1", "X-1", idx)


@pytest.mark.parametrize("l", range(4))
def test_bracket_check_detects_negated_bracket(l, monkeypatch,
                                               fresh_bracket_caches):
    idx = WignerIndex(l, 0, 0)
    assert bracket_check("X1", "X-1", idx)
    exact = action._bracket_coords_flat

    def negated(a, b):
        return tuple((t, -c) for t, c in exact(a, b))

    monkeypatch.setattr(action, "_bracket_coords_flat", negated)
    action._pair_defect_zero.cache_clear()
    assert not bracket_check("X1", "X-1", idx)


@pytest.mark.parametrize("pair,kind", [
    (("Y2", "Z1"), "bracket"), (("Z-1", "Z1"), "bracket"), (("Z-1", "Z1"), "amplitude"),
])
@pytest.mark.parametrize("l", range(1, 4))
def test_bracket_check_negative_controls_per_pair_class(pair, kind, l):
    # a (Y, Z) and a (Z, Z) pair, as the X1/X-1 controls above; the wrong
    # amplitude is the first of U_2 D^l_{0,.}
    idx = WignerIndex(l, 0, 1)
    perturbation = ("amplitude", 2, l, 0) if kind == "amplitude" else (kind,)
    clear_bracket_caches()
    assert bracket_check(*pair, idx)
    with perturbed(*perturbation):
        assert not bracket_check(*pair, idx)


@pytest.mark.parametrize("args", [
    ("Z1", "Z2", (1, 5, 0)), ("Z1", "Z2", (-1, 0, 0)), ("Y1", "Z2", (2, 0, 3)),
    ("Q", "Z1", (1, 0, 0)), ("Y9", "Z1", (1, 0, 0)), ("Z1", "Z3", (1, 0, 0)),
    ("X1", "H3", (1, 0, 0)),
])
def test_bracket_check_rejects_bad_input(args):
    with pytest.raises(ValueError):
        bracket_check(*args)


def test_bracket_check_reads_no_composed_action(fresh_bracket_caches, monkeypatch):
    # every convenient and standard pair on every index with l <= 3, with
    # the direct action paths kept for the reference and bench/ made to fail
    def refuse(*args):
        raise AssertionError("bracket_check read a composed action")

    monkeypatch.setattr(action, "_apply_flat", refuse)
    monkeypatch.setattr(action, "_apply_poly_cached", refuse)
    pairs = CONVENIENT_PAIRS + list(itertools.combinations(STANDARD_BASIS, 2))
    assert len(pairs) == 56
    for l in range(4):
        for m1 in range(-l, l + 1):
            for m2 in range(-l, l + 1):
                for pair in pairs:
                    assert bracket_check(*pair, WignerIndex(l, m1, m2)), (pair, l, m1, m2)


def test_bracket_caches_are_bounded():
    assert action._pair_defect_zero.cache_info().maxsize == 200_000
    assert action._apply_flat.cache_info().maxsize == 200_000
    for name in BRACKET_CACHES:
        assert getattr(action, name).cache_info().maxsize is not None, name


# ---------------------------------------------------------------------------
# standard-basis action and matrix assembly


@pytest.mark.parametrize("lam", [(0.3, 0.1, 5.0), (0.3,), (0.3, -0.3),
                                 (0.3, 0.1, -0.4, 0.0), (float("nan"), 0.0, 0.0)])
def test_decompose_standard_basis_rejects_bad_lambda(lam):
    with pytest.raises(ValueError, match="summing to zero"):
        decompose_standard_basis("X1", WignerIndex(2, 1, 0), lam)


def test_decompose_standard_basis_numeric():
    # against the numeric convenient-basis actions, combined with the
    # complex coordinates of each standard generator
    lam = (0.3 + 0.1j, -0.2, -0.1 - 0.1j)
    indices = [WignerIndex(0, 0, 0), WignerIndex(1, -1, 1), WignerIndex(2, 1, 0),
               WignerIndex(3, -2, 3), WignerIndex(5, 4, -2)]
    for tag in STANDARD_BASIS:
        for idx in indices:
            want = KTypeVector()
            for t, c in standard_basis_coords(tag):
                part = (right_derivative_Y(Y_TAGS[t], idx) if t in Y_TAGS
                        else act_Z(Z_TAGS[t], idx, lam))
                want = want + part.scaled(complex(c))
            got = decompose_standard_basis(tag, idx, lam)
            assert got and all(isinstance(c, complex) for _, c in got.items())
            scale = max(abs(c) for _, c in want.items())
            for t in set(got.terms) | set(want.terms):
                assert abs(got.get(t, 0) - want.get(t, 0)) <= 1e-12 * scale, \
                    (tag, idx, t)


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


# ---------------------------------------------------------------------------
# factored assembly and the JSON writer against the per-entry references


def reference_assemble_matrix(params, generator, lmax):
    """The per-label assembler: one act_Z_on_basis (or right_derivative_Y)
    call per source label, each entry added into a zero block."""
    lam = tuple(complex(x) for x in params.lam)
    labels = [lab for l in range(lmax + 1) for lab in basis(params, l)]
    index_within = {}
    for lab in labels:
        d = index_within.setdefault(lab.l, {})
        d[lab] = len(d)
    blocks, truncated = {}, []
    for lab in labels:
        if generator in Y_TAGS:
            vec = right_derivative_Y(Y_TAGS[generator], WignerIndex(*lab))
        else:
            vec = act_Z_on_basis(Z_TAGS[generator], lab, params, lam)
        col = index_within[lab.l][lab]
        for target, c in vec.items():
            if target.l > lmax:
                truncated.append((lab, target.l))
                continue
            key = (lab.l, target.l)
            if key not in blocks:
                blocks[key] = np.zeros((len(index_within.get(target.l, {})),
                                        len(index_within[lab.l])), dtype=complex)
            row = index_within[target.l][BasisLabel(*target)]
            blocks[key][row, col] += complex(c)
    return action.ActionMatrix(params, generator, lmax, labels, blocks, truncated)


def reference_dense(mat):
    """The per-entry placement of every block into the full matrix."""
    n = len(mat.labels)
    out = np.zeros((n, n), dtype=complex)
    by_l = {}
    for i, lab in enumerate(mat.labels):
        by_l.setdefault(lab.l, []).append(i)
    for (ls, lt), block in mat.blocks.items():
        for bi, i in enumerate(by_l.get(lt, [])):
            for bj, j in enumerate(by_l.get(ls, [])):
                out[i, j] = block[bi, bj]
    return out


def assert_same_matrix(got, want):
    assert got.labels == want.labels and got.truncated == want.truncated
    assert set(got.blocks) == set(want.blocks)
    for key, block in want.blocks.items():
        other = got.blocks[key]
        assert other.dtype == block.dtype and np.array_equal(other, block), key
        for part in ("real", "imag"):  # zeros carry the same sign
            assert np.array_equal(np.signbit(getattr(other, part)),
                                  np.signbit(getattr(block, part))), key


@st.composite
def assembly_parameters(draw):
    """A rational, real float or complex spectral parameter summing to zero."""
    kind = draw(st.sampled_from(("rational", "real", "complex")))
    if kind == "rational":
        a, b = draw(_small_fractions()), draw(_small_fractions())
    else:
        part = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
        a, b = draw(part), draw(part)
        if kind == "complex":
            a, b = complex(a, draw(part)), complex(b, draw(part))
    return (a, b, -a - b)


@given(st.sampled_from(DELTAS), assembly_parameters(), st.integers(0, 6),
       st.sampled_from(CONVENIENT_BASIS))
@settings(max_examples=120, deadline=None)
@example((1, 0, 1), (Fraction(1, 2), Fraction(-1, 2), 0), 6, "Z1")
@example((0, 1, 0), (0.0, -0.0, 0.0), 3, "Y1")
def test_factored_assembly_and_writer_match_references(delta, lam, lmax, gen):
    params = SeriesParams(lam, delta)
    mat = assemble_matrix(params, gen, lmax)
    assert_same_matrix(mat, reference_assemble_matrix(params, gen, lmax))
    assert mat.json_text() == json.dumps(mat.to_json(), sort_keys=True)
    assert np.array_equal(mat.dense(), reference_dense(mat))


def test_assembly_at_a_large_spectral_parameter():
    # amplitudes near 1e307: finite, and byte-identical to the references
    lam = (1e307 + 1e307j, -1e307 - 1e307j, 0j)
    for delta in ((0, 0, 0), (1, 0, 1)):
        for gen in ("Z-2", "Z0", "Z1", "Y3"):
            params = SeriesParams(lam, delta)
            mat = assemble_matrix(params, gen, 4)
            assert_same_matrix(mat, reference_assemble_matrix(params, gen, 4))
            text = mat.json_text()
            assert text == json.dumps(mat.to_json(), sort_keys=True)
            assert "e+307" in text and "Infinity" not in text


def test_assemble_matrix_makes_no_per_label_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("act_Z_on_basis called by assemble_matrix")

    monkeypatch.setattr(action, "act_Z_on_basis", refuse)
    params = SeriesParams((0.3 + 0.1j, -0.2, -0.1 - 0.1j), (1, 0, 1))
    assert assemble_matrix(params, "Z1", 5).blocks


def test_assemble_matrix_rejects_unknown_generator():
    # odd parity has no label at l = 0: the tag is refused even with no block to build
    with pytest.raises(ValueError, match="unsupported generator"):
        assemble_matrix(SeriesParams((0, 0, 0), (1, 0, 0)), "X1", 0)


def test_json_text_writes_signed_zeros_and_non_finite_entries_as_json_does():
    params = SeriesParams((0, 0, 0), (0, 0, 0))
    labels = [BasisLabel(0, 0, 0)] + list(basis(params, 2))
    rows = len(basis(params, 2))
    block = np.zeros((rows, 1), dtype=complex)
    block[0, 0] = complex(-0.0, 0.0)
    block[1, 0] = complex(0.0, -0.0)
    block[2, 0] = complex(1e-310, -2.5)
    mat = action.ActionMatrix(params, "Z2", 2, labels, {(0, 2): block.copy()})
    assert mat.json_text() == json.dumps(mat.to_json(), sort_keys=True)
    block[3, 0] = complex(float("nan"), float("inf"))
    mat.blocks[(0, 2)] = block
    text = mat.json_text()
    assert text == json.dumps(mat.to_json(), sort_keys=True)
    assert "[NaN, Infinity]" in text
