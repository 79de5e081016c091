"""Tests for the Lie algebra action: exact coefficients, change of basis,
bracket fidelity, ladder compositions, and matrix assembly."""

import collections
import contextlib
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sl3rep import VerificationError, action, kernel
from sl3rep.action import (CONVENIENT_BASIS, STANDARD_BASIS, Y_TAGS, Z_TAGS,
                           act_W, act_Z_on_basis, assemble_matrix,
                           bracket_check, compose_poly, decompose_matrix,
                           decompose_standard_basis, matrix_bracket,
                           project_P, pwqu_exceptional, reassemble,
                           standard_basis_coords)
from sl3rep.clebsch import q, q_core
from sl3rep.kernel import (GENERATOR_MATRICES, act_U, act_Z, generator_matrix_numeric,
                           label_components, lambda_factor)
from sl3rep.ktvector import KTypeVector
from sl3rep.scalars import ONE, ZERO, LambdaForm, RadicalScalar
from sl3rep.series import BasisLabel, SeriesParams, basis, label_sign, label_valid
from sl3rep.wigner import WignerIndex, right_derivative_Y, y_steps

from cg_identities import C_FACTORS

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


# lam_1, lam_2, lam_3 as forms: Lambda at these is the symbolic Lambda
UNITS = (LambdaForm(c1=ONE), LambdaForm(c2=ONE), LambdaForm(c3=ONE))


def reference_act_Z(n, idx, lam=UNITS):
    """The unfactorized five-term sum over (j, k), one Lambda per term: a
    LambdaForm at the unit forms, else the form evaluated at lam."""
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
            form = lambda_factor(k, j, l, m1, UNITS)
            if lam is UNITS:
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
    """A rational triple (exact) or a complex one (numeric)."""
    if draw(st.booleans()):
        a, b = draw(_small_fractions()), draw(_small_fractions())
        return (a, b, -a - b)
    part = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    a = complex(draw(part), draw(part))
    b = complex(draw(part), draw(part))
    return (a, b, -a - b)


def assert_same_vector(got, want, lam):
    """Exact equality in exact mode, 1e-13 relative in numeric mode."""
    assert set(got.terms) == set(want.terms)
    for t, c in want.items():
        if not all(isinstance(x, (int, Fraction)) for x in lam):
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
    label = BasisLabel(23, 23, 0)
    for first, second, kind in ((exact, numeric, complex),
                                (numeric, exact, RadicalScalar)):
        kernel._u_amplitudes.cache_clear()
        kernel._folded_amplitudes.cache_clear()
        act_Z(1, idx, first)
        act_Z_on_basis(1, label, SeriesParams(first, (1, 0, 1)))
        for vec in (act_Z(1, idx, second),
                    act_Z_on_basis(1, label, SeriesParams(second, (1, 0, 1)))):
            assert vec and all(isinstance(c, kind) for _, c in vec.items())


def test_act_z_modes_agree():
    lam = (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6))
    lamf = tuple(complex(x) for x in lam)
    for n in range(-2, 3):
        for idx in [WignerIndex(2, 1, -1), WignerIndex(3, 0, 2)]:
            sym = reference_act_Z(n, idx)
            exact = act_Z(n, idx, lam)
            num = act_Z(n, idx, lamf)
            for t, form in sym.items():
                assert form.eval_exact(lam) == exact.get(t)
                assert num.get(t) == pytest.approx(float(exact.get(t)), abs=1e-12)
            assert set(sym.terms) == set(exact.terms) >= set(num.terms)


def test_act_z_index_shifts():
    lam = (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6))
    for t in act_Z(1, WignerIndex(3, 1, 0), lam):
        assert t.m2 == 1
        assert t.m1 in (-1, 1, 3)
        assert 1 <= t.l <= 5
    with pytest.raises(ValueError):
        act_Z(3, WignerIndex(1, 0, 0), lam)


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
    f = lambda_factor(-2, 1, 4, 2, UNITS)  # l1 - l2 + 1 - m1
    assert f.eval((2.0, 0.5, -2.5)) == pytest.approx(2.0 - 0.5 + 1 - 2)
    f = lambda_factor(2, 1, 4, 2, UNITS)
    assert f.eval((2.0, 0.5, -2.5)) == pytest.approx(2.0 - 0.5 + 1 + 2)
    f = lambda_factor(0, 2, 3, 1, UNITS)  # l1 + l2 - 2 l3 + jl + (j + j^2)/2
    assert f.eval((2.0, 0.5, -2.5)) == pytest.approx(2.0 + 0.5 + 5.0 + 6 + 3)
    with pytest.raises(ValueError):
        lambda_factor(1, 0, 2, 0, UNITS)


@given(st.integers(0, 12), st.data(), st.one_of(st.just(UNITS), spectral_parameters()))
@settings(max_examples=150, deadline=None)
def test_lambda_factor_at_lam_is_the_form_evaluated(l, data, lam):
    # one formula: at the unit forms the symbolic form, at a rational lam
    # its exact value, at a complex one its complex value, as
    # LambdaForm.eval computes it
    m1 = data.draw(st.integers(-l, l))
    for k in (-2, 0, 2):
        for j in range(-2, 3):
            form = lambda_factor(k, j, l, m1, UNITS)
            assert isinstance(form, LambdaForm)
            got = lambda_factor(k, j, l, m1, lam)
            if lam is UNITS:
                assert got == form
            elif all(isinstance(x, Fraction) for x in lam):
                assert got == form.eval_exact(lam)
            else:
                assert type(got) is complex and got == form.eval(lam)


BAD_LAMBDAS = [
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), (1, -1), (1, -1, 0, 0),
    (0.3 + 0.1j, -0.2, 0.5), (0.3j, -0.3j), (1j, -1j, 0, 0), (float("nan"), 0.0, 0.0),
    None, 5,
]


@pytest.mark.parametrize("lam", BAD_LAMBDAS)
def test_entry_points_reject_a_lam_that_is_no_zero_sum_triple(lam):
    calls = [
        lambda: act_Z(1, WignerIndex(2, 1, 0), lam),
        lambda: act_U(1, WignerIndex(2, 1, 0), lam),
        # U_-2 of an l = 0 index is no vector: no Lambda is ever evaluated
        lambda: act_U(-2, WignerIndex(0, 0, 0), lam),
        lambda: act_W(0, 2, 0, KTypeVector({WignerIndex(2, 1, 0): 1}), lam),
        # act_Z_on_basis reads lam from its SeriesParams, which checks it
        lambda: act_Z_on_basis(1, BasisLabel(2, 0, 0), SeriesParams(lam, (0, 0, 0))),
    ]
    if lam is not None:  # without lam, the action with symbolic Lambda
        calls.append(lambda: decompose_standard_basis("X1", WignerIndex(2, 1, 0), lam))
    for call in calls:
        with pytest.raises(ValueError, match="triple summing to zero"):
            call()


def test_float_couplings_are_bitwise_the_floats_of_q():
    # the one coupling table: q itself in the exact modes, its float,
    # to the bit, in numeric mode; for n < 0, and n = 0 with m2 < 0, both
    # are read from the mirror (-1)^j q(-n, j, l, -m2)
    for n, l in itertools.product(range(-2, 3), range(41)):
        for m2 in range(-l, l + 1):
            exact = [(j, q(n, j, l, m2)) for j in range(-2, 3) if q(n, j, l, m2)]
            got = kernel._couplings(n, l, m2, "exact")
            assert list(got) == exact, (n, l, m2)
            assert [(j, repr(x)) for j, x in got] == [(j, repr(x)) for j, x in exact]
            want = [(j, float(x).hex()) for j, x in exact]
            got = [(j, x.hex()) for j, x in kernel._couplings(n, l, m2, "numeric")]
            assert got == want, (n, l, m2)


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_mirrored_couplings_make_no_coupling_call(mode, monkeypatch):
    # once the couplings of Z_n are read, reading those of Z_-n computes no
    # new core: every q_core they ask for, Z_n's couplings asked for first
    cores = []
    monkeypatch.setattr(kernel, "q_core", lambda *idx: cores.append(idx) or q_core(*idx))
    kernel._couplings.cache_clear()
    indices = [(n, l, m2) for n in (-2, -1, 0) for l in range(7)
               for m2 in range(-l, l + 1) if n or m2 < 0]
    for n, l, m2 in indices:
        kernel._couplings(-n, l, -m2, mode)
    read = set(cores)
    assert read
    cores.clear()
    for n, l, m2 in indices:
        got = kernel._couplings(n, l, m2, mode)
        assert [j for j, _ in got] == [j for j in range(-2, 3) if q(n, j, l, m2)]
    assert cores and set(cores) <= read


def complex_parameters():
    part = st.floats(-2, 2, allow_nan=False, allow_infinity=False)
    return st.tuples(part, part, part, part).map(
        lambda p: (complex(p[0], p[1]), complex(p[2], p[3]),
                   -complex(p[0], p[1]) - complex(p[2], p[3])))


@given(st.integers(0, 12).flatmap(
    lambda l: st.tuples(st.just(l), st.integers(-l, l))), complex_parameters())
@example((5, -3), (1 + 0j, -1 + 0j, -0j))  # no imaginary parts: signed zeros
@settings(max_examples=150, deadline=None)
def test_numeric_amplitudes_are_bitwise_the_exact_ones_converted(index, lam):
    # the numeric U_j amplitudes take c_k q as a float from the integers of
    # q; each must be the complex of the exact c_k q times Lambda, to the bit
    l, m1 = index
    mode, key = kernel._lam_key(lam)
    assert mode == "numeric"
    for j in range(-2, 3):
        want = []
        for k in (-2, 0, 2):
            if q(k, j, l, m1):
                c = lambda_factor(k, j, l, m1, key) * complex(C_FACTORS[k] * q(k, j, l, m1))
                if c != 0:
                    want.append((k, c))
        got = kernel._u_amplitudes.__wrapped__(j, l, m1, mode, key)
        assert got == tuple(want)
        assert [(z.real.hex(), z.imag.hex()) for _, z in got] == \
            [(z.real.hex(), z.imag.hex()) for _, z in want]


def reference_int_terms(form: LambdaForm) -> tuple:
    """The integer terms (rad, im, p0, p1, p2, den) of a LambdaForm, lam3
    eliminated: the conversion the bracket verifier made of its symbolic
    amplitudes before they were built from the integers of c_k q."""
    groups: dict[tuple[int, int], list] = {}
    for slot, r in enumerate(form.canonical()):
        for rad, c in r.terms.items():
            key = (-rad, 1) if rad < 0 else (rad, 0)
            groups.setdefault(key, [Fraction(0)] * 3)[slot] += c
    out = []
    for (rad, im), p in sorted(groups.items()):
        den = math.lcm(*(c.denominator for c in p))
        out.append((rad, im, *(int(c * den) for c in p), den))
    return tuple(out)


def test_u_terms_are_the_integer_terms_of_the_symbolic_amplitudes():
    # built from C_FACTORS, q and the symbolic Lambda, not from the cores
    # that _u_terms and _u_amplitudes both read
    for l in range(25):
        for m1, j in itertools.product(range(-l, l + 1), range(-2, 3)):
            want = []
            for k in (-2, 0, 2):
                form = lambda_factor(k, j, l, m1, UNITS) * (C_FACTORS[k] * q(k, j, l, m1))
                if form:
                    want.append((k, reference_int_terms(form)))
            assert kernel._u_terms.__wrapped__(j, l, m1) == tuple(want), (j, l, m1)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@given(st.sampled_from((-2, 0, 2)), st.integers(-2, 2),
       st.integers(0, 2000).flatmap(lambda l: st.tuples(st.just(l), st.integers(-l, l))))
@example(0, 2, (2, -2))  # 6 meets the radicand 42: both factors cancel
@example(0, 2, (1, 0))   # 6 meets the radicand 15: 3 cancels
@example(0, -1, (3, 0))  # q vanishes
@example(0, 2, (1999, -7))
@settings(max_examples=300, deadline=None)
def test_ckq_core_is_c_k_q(k, j, index):
    l, m = index
    num, rad, den = kernel._ckq_core(k, j, l, m)
    exact = C_FACTORS[k] * q(k, j, l, m)
    assert den > 0 and math.gcd(num, den) == 1
    assert not any(rad % (p * p) == 0 for p in SMALL_PRIMES)
    assert Fraction(num, den) ** 2 * rad == (exact * exact).as_rational()
    if num:
        assert exact.terms == {rad: Fraction(num, den)}  # rad is its squarefree key
    assert (num / den * math.sqrt(rad)).hex() == complex(exact).real.hex()


@pytest.mark.parametrize("lam", [(1, -1, 0), (Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 6)),
                                 (0.5 + 0.1j, -0.2j, -0.5 + 0.1j)])
@pytest.mark.parametrize("n", [-3, 3, 5])
def test_z_entry_points_reject_n_outside_the_five(n, lam):
    with pytest.raises(ValueError, match="n must be in"):
        act_Z(n, WignerIndex(3, 1, 0), lam)
    with pytest.raises(ValueError, match="n must be in"):
        act_Z_on_basis(n, BasisLabel(3, 2, 0), SeriesParams(lam, (0, 0, 0)))


def duality_failures(lam, lmax, act=act_Z):
    """(failures, relations read) of the pairing of pi_lam with pi_-lam,
    the integral over K of f g: for Z_n, every index x = (l, m1, m2) and
    every target y = (l', m1', m2') of act(n, x, lam), both with l <= lmax,

        coef_lam(x -> y) (-1)^(m1'-m2') / (2l'+1)
            = -coef_-lam(ybar -> xbar) (-1)^(m1-m2) / (2l+1),

    with xbar = (l, -m1, -m2); each failure is (n, x, y)."""
    neg = tuple(-x for x in lam)
    failures, read = [], 0
    for n in range(-2, 3):
        for l in range(lmax + 1):
            for m1, m2 in itertools.product(range(-l, l + 1), repeat=2):
                x, xbar = WignerIndex(l, m1, m2), WignerIndex(l, -m1, -m2)
                for y, c in act(n, x, lam).items():
                    if y.l > lmax:
                        continue
                    ybar = WignerIndex(y.l, -y.m1, -y.m2)
                    lhs = c * Fraction(1 - 2 * ((y.m1 - y.m2) % 2), 2 * y.l + 1)
                    rhs = -act(n, ybar, neg).get(xbar, ZERO) * Fraction(
                        1 - 2 * ((m1 - m2) % 2), 2 * l + 1)
                    read += 1
                    if lhs != rhs:
                        failures.append((n, x, y))
    return failures, read


DUALITY_LAMS = [(Fraction(7, 5), Fraction(-2, 3), Fraction(-11, 15)),
                (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6))]


# each relation is affine in (lam1, lam2), and these three lam are affinely
# independent; at lam and at -lam every relation with a nonzero side is
# read, so this proves the identity for every lam on l <= 4
@pytest.mark.parametrize("lam", [*DUALITY_LAMS, (0, 0, 0),
                                 *(tuple(-x for x in lam) for lam in DUALITY_LAMS)])
def test_pi_lambda_is_dual_to_pi_minus_lambda(lam):
    failures, read = duality_failures(lam, 4)
    assert read == (4382 if any(lam) else 3170)
    assert not failures, failures[:5]


def rescaled_act_Z(c):
    """act_Z in the basis c(x) D_x: a conjugation by an operator that
    commutes with K, so no bracket changes."""
    def act(n, x, lam):
        return KTypeVector({y: v * Fraction(c(x), c(y)) for y, v in act_Z(n, x, lam).items()})
    return act


@pytest.mark.parametrize("c, broken", [(lambda x: x.l + 1, 2826),
                                       (lambda x: x.l + abs(x.m1) + 2, 3486)],
                         ids=["per-K-type", "per-l-m1"])
def test_duality_pins_the_normalization(c, broken):
    # a rescaling the bracket verifier cannot see breaks the pairing
    failures, read = duality_failures(DUALITY_LAMS[0], 4, rescaled_act_Z(c))
    assert (len(failures), read) == (broken, 4382)


# ---------------------------------------------------------------------------
# folded basis action


# every parity class; the first four keep their test ids
DELTAS = [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1),
          (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]


def expand_label(delta, label: BasisLabel) -> list[tuple[WignerIndex, int]]:
    """The Wigner components of v_label with their weights."""
    l, m1, m2 = label
    return [(WignerIndex(l, src, m2), w)
            for src, w in label_components(delta, l, m1)]


@pytest.mark.parametrize("delta", DELTAS)
@given(st.data(), spectral_parameters())
@settings(max_examples=40, deadline=None)
def test_fold_consistency_and_unfolding(delta, data, lam):
    # act_Z_on_basis must give valid labels only, and agree with the
    # unfactorized expansion acting on the unfolded Wigner sum
    params = SeriesParams(lam, delta)
    labels = [lab for l in range(9) for lab in basis(params, l)]
    label = data.draw(st.sampled_from(labels))
    n = data.draw(st.integers(-2, 2))
    folded = act_Z_on_basis(n, label, params)
    assert all(label_valid(delta, lab) for lab in folded)
    raw = KTypeVector()
    for idx, w in expand_label(delta, label):
        raw = raw + reference_act_Z(n, idx, lam).scaled(w)
    rebuilt = KTypeVector()
    for lab, c in folded.items():
        for idx, w in expand_label(delta, lab):
            rebuilt.add_term(idx, c * w)
    diff = raw - rebuilt
    if isinstance(lam[0], complex):
        scale = max((abs(c) for c in raw.terms.values()), default=1.0)
        assert all(abs(c) <= 1e-12 * scale for c in diff.terms.values())
    else:
        assert diff.is_zero()


@pytest.mark.parametrize("lam", [(Fraction(1, 3), Fraction(1, 6), Fraction(-1, 2)),
                                 (0.3 + 0.1j, -0.2, -0.1 - 0.1j)], ids=["rational", "complex"])
def test_fold_inconsistency_is_a_verification_error(lam, monkeypatch):
    # a -m1 component carrying the wrong fold sign cannot fold consistently:
    # the integer fold's identity in lam fails at a rational lam, and the
    # float fold's check of the D_{-t} parts within rounding at a complex one
    def wrong_sign(delta, l, m1):
        return ((0, 2),) if m1 == 0 else ((m1, 1), (-m1, -label_sign(delta, l)))

    monkeypatch.setattr(kernel, "label_components", wrong_sign)
    clear_fold_caches()
    params = SeriesParams(lam, (0, 0, 0))
    try:
        with pytest.raises(VerificationError, match="fold inconsistency"):
            act_Z_on_basis(0, BasisLabel(4, 2, 0), params)
    finally:
        clear_fold_caches()


def clear_fold_caches():
    """Empty the caches of both folds, so a patched fold input is read."""
    kernel._integer_fold.cache_clear()
    kernel._folded_amplitudes.cache_clear()


# ---------------------------------------------------------------------------
# The lam-free integer fold against the exact fold it replaced


def reference_folded_amplitudes(delta, j, l, m1, lam):
    """The exact fold as it was computed at one lam: the nonzero U_j amplitudes
    Lam^(k)_j c_k q(k, j, l, src) of the +-m1 components at lam, built from
    C_FACTORS and q apart from the kernel's integer terms, summed with their
    fold weights as RadicalScalars, each D_{-t} part checked by subtraction
    against the fold sign times the D_t part, targets in the order they first
    appear at lam."""
    raw = KTypeVector()
    order = []
    for src, w in label_components(delta, l, m1):
        for k in (-2, 0, 2):
            amp = lambda_factor(k, j, l, src, lam) * (C_FACTORS[k] * q(k, j, l, src))
            if amp.is_zero():
                continue
            raw.add_term(src + k, amp if w == 1 else amp * w)
            if abs(src + k) not in order:
                order.append(abs(src + k))
    lt = l + j
    sign = label_sign(delta, lt)
    out = []
    for t in order:
        c_pos, c_neg = raw.get(t), raw.get(-t)
        if t and ((c_pos is None or c_neg is None) and c_pos is not c_neg
                  or c_pos is not None and c_neg is not None
                  and not (c_neg - c_pos * sign).is_zero()):
            raise VerificationError(f"fold inconsistency at D^{lt}_{-t} acting "
                                    f"with U_{j} on v_({l},{m1},.)")
        if c_pos is None:
            continue
        if not label_valid(delta, BasisLabel(lt, t, 0)):
            raise VerificationError(f"U_{j} on v_({l},{m1},.) reaches the invalid "
                                    f"label v_({lt},{t},.) for parity {delta}")
        out.append((t, c_pos * Fraction(1, 2) if t == 0 else c_pos))
    return tuple(out)


@st.composite
def fold_sources(draw):
    """(delta, j, l, m1) with v_{l,m1,.} a valid label, l <= 30."""
    delta = draw(st.sampled_from(DELTAS))
    l = draw(st.integers(0, 30))
    m1s = [m1 for m1 in range(l + 1) if label_valid(delta, BasisLabel(l, m1, 0))]
    assume(m1s)
    return delta, draw(st.integers(max(-2, -l), 2)), l, draw(st.sampled_from(m1s))


@st.composite
def rational_lambdas(draw):
    """A rational zero-sum triple, often on a line where some Lambda vanishes
    for every l: (a, -a, 0) and (t - 1, 1 - t, 0)."""
    x = draw(st.fractions(min_value=-30, max_value=30, max_denominator=12))
    kind = draw(st.sampled_from(["a", "t", "free"]))
    if kind == "a":
        return (x, -x, Fraction(0))
    if kind == "t":
        return (x - 1, 1 - x, Fraction(0))
    y = draw(_small_fractions())
    return (x, y, -x - y)


@given(fold_sources(), rational_lambdas())
@settings(max_examples=300, deadline=None)
@example(((0, 0, 0), 0, 4, 0), (Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15)))
@example(((0, 0, 0), 2, 6, 2), (Fraction(2), Fraction(-2), Fraction(0)))
@example(((1, 0, 1), -1, 5, 1), (Fraction(-1), Fraction(1), Fraction(0)))
@example(((1, 0, 1), 1, 30, 1), (Fraction(1, 2), Fraction(-1, 2), Fraction(0)))
@example(((1, 0, 1), 0, 25, 23), (Fraction(11), Fraction(-11), Fraction(0)))
def test_integer_fold_at_lambda_is_the_exact_fold(source, lam):
    delta, j, l, m1 = source
    want = reference_folded_amplitudes(delta, j, l, m1, lam)
    got = kernel._folded_amplitudes.__wrapped__(delta, j, l, m1, "exact", lam)
    assert [t for t, _ in got] == [t for t, _ in want]
    assert got == want and repr(got) == repr(want)
    # the integer zero test of each target is the zero test of its value
    n1, n2, d = kernel._lam_ints(lam)
    values = dict(want)
    for t, terms in kernel._integer_fold.__wrapped__(delta, j, l, m1):
        zero = not any(p0 * d + p1 * n1 + p2 * n2 for _, p0, p1, p2, _ in terms)
        assert zero == values.get(t, ZERO).is_zero()


def test_integer_fold_is_checked_as_an_identity_in_lambda(monkeypatch):
    # one -m1 component's coupling core with its sign flipped: the D_{-t}
    # parts no longer mirror the D_t parts at any lam
    delta, fold = (0, 0, 0), kernel._integer_fold.__wrapped__
    assert fold(delta, 0, 4, 2)
    real = kernel._ckq_core

    def flipped(k, j, l, m1):
        num, rad, den = real(k, j, l, m1)
        return (-num if (k, j, l, m1) == (-2, 0, 4, -2) else num), rad, den

    monkeypatch.setattr(kernel, "_ckq_core", flipped)
    with pytest.raises(VerificationError, match=r"fold inconsistency at D\^4_-4 "
                                                r"acting with U_0 on v_\(4,2,\.\)"):
        fold(delta, 0, 4, 2)


def test_integer_fold_rejects_a_term_at_an_invalid_label(monkeypatch):
    # U_-2 on v_(4,4,.) reaches v_(2,t,.) for t <= 2 only; a term injected at
    # k = +-2 on both components, consistently folded, reaches t = 6 > 2
    delta, fold = (0, 0, 0), kernel._integer_fold.__wrapped__
    assert [t for t, _ in fold(delta, -2, 4, 4)] == [2]
    real = kernel._u_term

    def injected(k, j, l, m1):
        if (j, l, abs(m1)) == (-2, 4, 4) and k * m1 > 0:
            return (1, 0, 1, 0, 0, 1)
        return real(k, j, l, m1)

    monkeypatch.setattr(kernel, "_u_term", injected)
    with pytest.raises(VerificationError,
                       match=r"U_-2 on v_\(4,4,\.\) reaches the invalid label v_\(2,6,\.\)"):
        fold(delta, -2, 4, 4)


def test_lambda_coeffs_are_lambda_factor_at_the_unit_forms():
    for k, j, l in itertools.product((-2, 0, 2), range(-2, 3), range(13)):
        for m1 in range(-l, l + 1):
            want = lambda_factor(k, j, l, m1, UNITS).canonical()
            got = kernel._lambda_coeffs(k, j, l, m1)
            assert tuple(RadicalScalar.from_rational(a) for a in got) == want


# sha256 of "label n target repr(coefficient)" lines over every coefficient
# of act_Z_on_basis at lam = (1/3, 1/5, -8/15), l <= 8; taken when the exact
# fold was computed per lam in RadicalScalars
PINNED_ACTION_DIGEST = "600a6104b19ed2e1591669a9d3f2147dc4048627f731d1d89f5844f2f48e4ad1"


def test_exact_action_on_the_basis_is_pinned():
    lam = (Fraction(1, 3), Fraction(1, 5), Fraction(-8, 15))
    h = hashlib.sha256()
    for delta in ((1, 0, 1), (0, 0, 0)):
        params = SeriesParams(lam, delta)
        for l in range(9):
            for label in basis(params, l):
                for n in range(-2, 3):
                    for target, c in act_Z_on_basis(n, label, params).items():
                        h.update(f"{tuple(label)} {n} {tuple(target)} {c!r}\n".encode())
    assert h.hexdigest() == PINNED_ACTION_DIGEST


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
        assert form == LambdaForm(const=form.const)
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
        act_W(2, 0, 0, v, (1, -1, 0))


def test_undefined_w_raises_before_computing_pi_z(monkeypatch):
    v = KTypeVector({WignerIndex(2, 0, 0): 1})
    # the W error comes first, even at a lam that pi(Z_n) would refuse
    with pytest.raises(ValueError, match="undefined"):
        act_W(2, 0, 0, v, (1, 2, 3))

    def no_act_z(*args):
        raise AssertionError("pi(Z_n) computed for an undefined W")

    monkeypatch.setattr(action, "act_Z", no_act_z)
    for n, L, m2 in [(1, 0, 0), (2, 1, 0), (-2, 0, 0), (-1, 3, -3)]:
        with pytest.raises(ValueError, match="undefined"):
            act_W(n, L, m2, v, (1, -1, 0))


def reference_ladder_m2(v: KTypeVector, step: int) -> KTypeVector:
    """pi(+-Y2 + iY3) written out by hand: shifts every m2 by `step` with the
    exact sqrt(l(l+1) - m2(m2+step)) coefficient."""
    out = KTypeVector()
    for (l, m1, m2), c in v.items():
        arg = l * (l + 1) - m2 * (m2 + step)
        if arg <= 0 or abs(m2 + step) > l:
            continue
        out.add_term(WignerIndex(l, m1, m2 + step),
                     c * RadicalScalar.sqrt_rational(arg))
    return out


def reference_w_norm(n, L, m2):
    """The normalization of W^L_{n,m2} written out by hand: 1/sqrt of
    L(L+1) - (m2 + s)(m2 + s') walking back toward m2."""
    steps = abs(n)
    norm = RadicalScalar.from_rational(1)
    for i in range(steps):
        if n > 0:
            hi = m2 + steps - i
            arg = L * (L + 1) - hi * (hi - 1)
        else:
            lo = m2 - steps + i
            arg = L * (L + 1) - lo * (lo + 1)
        if arg <= 0:
            raise ValueError(f"W^{L}_{{{n},{m2}}} undefined: nonpositive "
                             f"normalization argument {arg}")
        norm = norm * RadicalScalar.sqrt_rational(Fraction(1, arg))
    return norm


def w_outcome(fn, *args):
    """repr of the vector, or of the ValueError, that fn gives."""
    try:
        return repr(sorted(fn(*args).items()))
    except ValueError as exc:
        return f"ValueError: {exc}"


# both sides are affine in lam on the plane lam1 + lam2 + lam3 = 0, so
# three affinely independent rational points decide the symbolic identity
W_LAMS = [((0, 0, 0), (1, 0, -1), (0, 1, -1)),
          ((Fraction(2, 3), Fraction(-1, 6), Fraction(-1, 2)),)]


def reference_w_outcomes(l, lam):
    """(n, L, m2, v, outcome) of W^L_{n,m2} on every D^l_{m1,m2} with L in
    [l-2, l+2], its ladder steps and normalizations written out by hand, not
    read from the step table; the steps do not depend on L."""
    for m1, m2, n in itertools.product(range(-l, l + 1), range(-l, l + 1),
                                       range(-2, 3)):
        v = KTypeVector({WignerIndex(l, m1, m2): 1})
        stepped = act_Z(n, WignerIndex(l, m1, m2), lam)
        for _ in range(abs(n)):
            stepped = reference_ladder_m2(stepped, -1 if n > 0 else 1)
        for L in range(l - 2, l + 3):
            yield n, L, m2, v, w_outcome(
                lambda: stepped.scaled(reference_w_norm(n, L, m2)))


@pytest.mark.parametrize("lams", W_LAMS, ids=["symbolic", "rational"])
@pytest.mark.parametrize("l", range(6))
def test_w_steps_from_the_step_table_match_the_hand_written_ladder(l, lams):
    for lam in lams:
        for n, L, m2, v, want in reference_w_outcomes(l, lam):
            assert w_outcome(act_W, n, L, m2, v, lam) == want, (n, L, m2, v, lam)


def test_w_with_the_y2_sign_flipped_differs(monkeypatch):
    # pi(-step Y2 + iY3) is the opposite ladder: every defined W with n != 0
    # must differ from the hand-written one
    step_row = action._w_step
    monkeypatch.setattr(action, "_w_step",
                        lambda step, l, m: step_row(-step, l, m))
    (lam,) = W_LAMS[1]
    defined = [(n, L, m2, v, want) for n, L, m2, v, want in reference_w_outcomes(3, lam)
               if n and not want.startswith("ValueError")]
    assert len(defined) == 672
    assert all(w_outcome(act_W, n, L, m2, v, lam) != want
               for n, L, m2, v, want in defined)


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


def compose_flat(outer: str, inner: tuple, sign: int) -> list:
    """The products (target, a, b, sign) of sign * pi(outer) applied to the
    flat vector `inner`."""
    return [(target, a, b, sign) for mid, b in inner
            for target, a in action._apply_flat(outer, mid)]


def reference_bracket_defect(tag_a: str, tag_b: str, idx: WignerIndex) -> bool:
    """Whether [pi(A), pi(B)] - pi([A, B]) vanishes on D_idx, both
    compositions expanded in full and summed over the lcm of their
    denominators: the direct path that the factored verifier is checked
    against."""
    products = compose_flat(tag_a, action._apply_flat(tag_b, idx), 1)
    products += compose_flat(tag_b, action._apply_flat(tag_a, idx), -1)
    for t, c in action._bracket_coords_flat(tag_a, tag_b):
        terms = action._int_terms(c)
        products += [(target, p, terms, -1) for target, p in action._apply_flat(t, idx)]
    return not any(any(e) for e in action._summed(products).entries.values())


@given(wigner_indices(5), st.sampled_from(CONVENIENT_BASIS),
       st.sampled_from(CONVENIENT_BASIS))
@example(WignerIndex(1, 0, 1), "Y3", "Y1")  # i * i
@settings(max_examples=80, deadline=None)
def test_integer_composition_matches_compose_poly(idx, a, b):
    # pi(A) pi(B) D on integer vectors equals the LambdaPoly reference,
    # monomial by monomial, radicand by radicand and i-power by i-power
    acc = action._summed(compose_flat(a, action._apply_flat(b, idx), 1))
    want = compose_poly(a, compose_poly(b, KTypeVector({idx: LambdaPoly.constant(1)})))
    assert rationals_of_accumulator(acc) == rationals_of_poly_vector(want)


def test_symbolic_action_is_the_unfactorized_reference_at_the_unit_forms():
    # the forms that _apply_poly_cached builds from the integer terms of
    # _apply_flat, against references that read neither: the five-term sum
    # at the unit forms, and each y_steps row as a constant form
    cases = 0
    for tag in CONVENIENT_BASIS:
        for l in range(7):
            for m1, m2 in itertools.product(range(-l, l + 1), repeat=2):
                idx = WignerIndex(l, m1, m2)
                if tag in Z_TAGS:
                    want = reference_act_Z(Z_TAGS[tag], idx)
                else:
                    want = KTypeVector({
                        WignerIndex(l, m1, t): LambdaForm(
                            const=RadicalScalar({1: unit.real, -1: unit.imag})
                            * RadicalScalar.sqrt_rational(square))
                        for t, unit, square in y_steps(Y_TAGS[tag], l, m2)})
                assert action._apply_poly_cached(tag, idx).terms == want.terms, (tag, idx)
                cases += 1
    assert cases == 3640


SQUAREFREE = (1, 2, 3, 5, 6, 7, 10, 15, 30)
DIVISORS_OF_12 = (1, 2, 3, 4, 6, 12)


@st.composite
def integer_terms(draw):
    """Up to three integer terms (rad, im, p0, p1, p2, den), den | 12."""
    return tuple((draw(st.sampled_from(SQUAREFREE)), draw(st.integers(0, 1)),
                  *draw(st.tuples(*[st.integers(-40, 40)] * 3)),
                  draw(st.sampled_from(DIVISORS_OF_12)))
                 for _ in range(draw(st.integers(0, 3))))


def reference_products_sum(products: list) -> dict:
    """(target, monomial slot, radicand, i-power) -> nonzero Fraction of the
    products, with sqrt(ra) sqrt(rb) reduced by trial division."""
    out = collections.defaultdict(Fraction)
    for target, a, b, sign in products:
        for (ra, ia, *pa, da), (rb, ib, *pb, db) in itertools.product(a, b):
            rad, root = ra * rb, 1
            for p in range(2, 31):
                while rad % (p * p) == 0:
                    rad, root = rad // (p * p), root * p
            f = Fraction(sign * root * (-1 if ia and ib else 1), da * db)
            for (ea, x), (eb, y) in itertools.product(enumerate(pa), enumerate(pb)):
                mono = tuple(u + v for u, v in zip(((0, 0), (1, 0), (0, 1))[ea],
                                                   ((0, 0), (1, 0), (0, 1))[eb]))
                out[(target, MONOMIAL_SLOTS[mono], rad, ia ^ ib)] += f * x * y
    return {key: x for key, x in out.items() if x}


def weighted(w: tuple, a: tuple) -> tuple:
    """The integer terms of a times the lam-free weight w = (rad, im, num),
    sqrt(rw) sqrt(ra) left unreduced for `reference_products_sum`."""
    rw, iw, num = w
    return tuple((rw * ra, iw ^ ia, *[-num * x if iw & ia else num * x for x in p], da)
                 for ra, ia, *p, da in a)


def flat_u_product(products: list) -> tuple:
    """The (K, a, b, 1) products as `_u_product` stores a U product: (den,
    ((K, rad, im, c0, ..., c5), ...)), zero parts left out."""
    acc = action._summed(products)
    return acc.den, tuple((K, rad, im, *e) for (K, rad, im), e in acc.entries.items()
                          if any(e))


@st.composite
def weighted_u_products(draw):
    """A term (w, U product, j, s) of `_defect_sum` with the products that
    make up its U product, as (K, a, b, 1)."""
    w = (draw(st.sampled_from(SQUAREFREE)), draw(st.integers(0, 1)),
         draw(st.integers(-40, 40)))
    products = draw(st.lists(st.tuples(st.integers(-4, 4), integer_terms(),
                                       integer_terms(), st.just(1)), max_size=3))
    return w, products, draw(st.integers(-2, 2)), draw(st.integers(-2, 2))


@given(st.lists(st.tuples(st.tuples(st.integers(-2, 2)), integer_terms(),
                          integer_terms(), st.sampled_from((1, -1))), max_size=6),
       st.integers(1, 6), st.integers(2, 7),
       st.lists(weighted_u_products(), max_size=6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_fixed_denominator_sum_is_the_fraction_sum(products, multiple, off,
                                                   weighted_terms, cancel):
    # every term denominator divides 12, so each product's divides 144 and
    # so den; a term over a denominator that does not divide den raises
    den = 144 * multiple
    acc = action._DegreeTwoSum(den)
    for product in products:
        acc.add(*product)
    assert acc.den == den
    assert rationals_of_accumulator(acc) == reference_products_sum(products)
    bad = den * off
    with pytest.raises(ValueError):
        acc.add((0,), ((1, 0, 1, 0, 0, bad),), ((1, 0, 1, 0, 0, 1),), 1)
    # the flat sum of the (Z, Z) defect: weights times U products over the
    # lcm of the U products' dens, key by key, against the Fraction sum of
    # every weight times every product; with cancel, each term again with
    # its weight negated, so the whole sum is zero
    if cancel:
        weighted_terms += [((rw, iw, -num), *rest) for (rw, iw, num), *rest in weighted_terms]
    terms = [(w, flat_u_product(prods), j, s) for w, prods, j, s in weighted_terms]
    flat = action._defect_sum(terms)
    flat_den = math.lcm(*{u[0] for _, u, _, _ in terms})
    got = {((j, K, s), slot, rad, im): Fraction(v, flat_den)
           for (j, K, s, rad, im), e in flat.items() for slot, v in enumerate(e) if v}
    want = reference_products_sum([((j, K, s), weighted(w, a), b, 1)
                                   for w, prods, j, s in weighted_terms
                                   for K, a, b, _ in prods])
    assert got == want
    assert not want or not cancel


# every cache that holds exact action data of the bracket verifier; _u_terms
# is left out, as the perturbations below replace it
BRACKET_CACHES = ("_apply_poly_cached", "_y_row", "_apply_flat", "_m2_steps",
                  "_u_product", "_defect_weights", "_pair_defect_zero")


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


def test_y_pair_weights_vanish_up_to_l_12():
    # every (Y, Y) and (Y, Z) table is empty, so their verdict is free of
    # lam and m1 on every index with l <= 12
    pairs = [p for p in CONVENIENT_PAIRS if p[0] in Y_TAGS]
    assert len(pairs) == 18
    tables = 0
    for a, b in pairs:
        coords = action._bracket_coords_flat(a, b)
        for l in range(13):
            for m2 in range(-l, l + 1):
                assert action._defect_weights(a, b, coords, l, m2) == (), (a, b, l, m2)
                tables += 1
    assert tables == 3042


def reference_defect_weights(tag_a: str, tag_b: str, l: int, m2: int) -> dict:
    """The W_js(l, m2; s) of a convenient pair as RadicalScalars keyed by
    (js, s): the coupling and Y-step products of both orders and of
    pi([A, B]), summed in RadicalScalar arithmetic, the couplings from q."""
    def steps(tag, js, l, m):
        if tag in Y_TAGS:
            return [(js, l, t, c) for t, c in action._y_row(Y_TAGS[tag], l, m)]
        n = Z_TAGS[tag]
        return [(js + (j,), l + j, m + n, q(n, j, l, m)) for j in range(-2, 3)
                if q(n, j, l, m)]

    w = {}
    for first, second, sign in ((tag_b, tag_a, 1), (tag_a, tag_b, -1)):
        for js1, lt, t, c1 in steps(first, (), l, m2):
            for js, _, s, c2 in steps(second, js1, lt, t):
                w[(js, s)] = w.get((js, s), ZERO) + c2 * c1 * sign
    for t, c in action._bracket_coords_flat(tag_a, tag_b):
        for js, _, s, ct in steps(t, (), l, m2):
            w[(js, s)] = w.get((js, s), ZERO) - ct * c
    return w


def six_coefficient_defect_weights(tag_a: str, tag_b: str, coords: tuple, l: int,
                                   m2: int) -> tuple:
    """The defect weights as a degree-2 sum gives them: the products of the
    m2 steps summed by `_summed` with all six coefficients of 1, lam1, lam2,
    lam1^2, lam1 lam2, lam2^2; every entry but that of 1 must vanish."""
    products = [((js1 + js2, s), c2, c1, sign)
                for first, second, sign in ((tag_b, tag_a, 1), (tag_a, tag_b, -1))
                for js1, lt, t, c1 in action._m2_steps(first, l, m2)
                for js2, _, s, c2 in action._m2_steps(second, lt, t)]
    products += [((js, s), ct, action._int_terms(c), -1)
                 for t, c in coords for js, _, s, ct in action._m2_steps(t, l, m2)]
    entries = action._summed(products).entries
    assert not any(any(e[1:]) for e in entries.values()), (tag_a, tag_b, l, m2)
    return tuple((js, s, (rad, im, e[0])) for ((js, s), rad, im), e in entries.items() if e[0])


def test_integer_defect_weights_are_the_radical_ones_over_one_denominator():
    # every integer table is the RadicalScalar one, monomial by monomial
    # (radicand, i-power), times one positive rational: the dropped
    # denominator; a sign or a term gone wrong breaks the single ratio.  Up
    # to l = 12, each lam-free table is, term for term and in order, the
    # six-coefficient table over the same denominator
    tables = nonempty = 0
    for a, b in CONVENIENT_PAIRS:
        coords = action._bracket_coords_flat(a, b)
        for l in range(13):
            for m2 in range(-l, l + 1):
                table = action._defect_weights(a, b, coords, l, m2)
                assert table == six_coefficient_defect_weights(a, b, coords, l, m2), \
                    (a, b, l, m2)
                tables += 1
                nonempty += bool(table)
                if l > 8:
                    continue
                want = {(js, s, abs(rad), int(rad < 0)): x
                        for (js, s), w in reference_defect_weights(a, b, l, m2).items()
                        for rad, x in w.terms.items()}
                got = {(js, s, rad, im): num for js, s, (rad, im, num) in table}
                assert len(got) == len(table) and got.keys() == want.keys(), \
                    (a, b, l, m2)
                ratios = {want[key] / got[key] for key in got}
                assert len(ratios) <= 1 and all(r > 0 for r in ratios), (a, b, l, m2)
    assert tables == 28 * 169 and nonempty > 0


# every RadicalScalar method that computes or builds a value
RADICAL_SCALAR_WORK = ("__init__", "__add__", "__radd__", "__neg__", "__sub__",
                       "__rsub__", "__mul__", "__rmul__", "inverse", "__truediv__")


def test_warm_bracket_sweep_makes_no_radical_scalar_operation(monkeypatch):
    # with the exact couplings, Y rows and matrix certificates cached, every
    # table, U product and verdict on l <= 4 is integer work alone
    pairs = CONVENIENT_PAIRS + list(itertools.combinations(STANDARD_BASIS, 2))
    indices = [WignerIndex(l, m1, m2) for l in range(5)
               for m1 in range(-l, l + 1) for m2 in range(-l, l + 1)]

    def sweep():
        return all(bracket_check(*pair, idx) for idx in indices for pair in pairs)

    assert sweep()
    for name in ("_defect_weights", "_u_product", "_pair_defect_zero"):
        getattr(action, name).cache_clear()
    calls = []
    for name in RADICAL_SCALAR_WORK:
        method = vars(RadicalScalar)[name]
        monkeypatch.setattr(RadicalScalar, name, lambda *args, _m=method, _n=name:
                            calls.append(_n) or _m(*args))
    assert sweep()
    assert len(calls) == 0, collections.Counter(calls)


def test_bracket_outside_the_span_of_b_fails_both_verdicts(monkeypatch,
                                                          fresh_bracket_caches):
    # a Y term put into [Y1, Z1], whose coordinates are Z's: a wrong
    # coordinate is a nonzero defect, not an error
    pair, idx = ("Y1", "Z1"), WignerIndex(2, 0, 1)
    exact = action._bracket_coords_flat

    def with_y2(a, b):
        coords = exact(a, b)
        return coords + (("Y2", ONE),) if (a, b) == pair else coords

    monkeypatch.setattr(action, "_bracket_coords_flat", with_y2)
    clear_bracket_caches()
    assert not action._bracket_defect_zero(*pair, idx)
    assert not reference_bracket_defect(*pair, idx)


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


def test_bracket_is_bilinear_in_the_convenient_coordinates():
    # the 3x3 identity under every standard-pair verdict: [A, B] = sum A_c
    # B_d [C_c, C_d] exactly for every ordered pair of the 16 tags, each
    # pair c != d listed by _convenient_pairs and [C, C] = 0
    for a, b in itertools.product(GENERATOR_MATRICES, repeat=2):
        pairs = action._convenient_pairs(a, b)
        total = [[ZERO] * 3 for _ in range(3)]
        for c, x in standard_basis_coords(a):
            for d, y in standard_basis_coords(b):
                br = matrix_bracket(GENERATOR_MATRICES[c], GENERATOR_MATRICES[d])
                assert c != d and tuple(sorted((c, d))) in pairs or \
                    all(not z for row in br for z in row), (a, b, c, d)
                for i, row in enumerate(br):
                    for j, z in enumerate(row):
                        total[i][j] += x * y * z
        assert tuple(map(tuple, total)) == matrix_bracket(
            GENERATOR_MATRICES[a], GENERATOR_MATRICES[b]), (a, b)


@pytest.mark.parametrize("tag", STANDARD_BASIS)
def test_a_wrong_standard_coordinate_raises(tag, monkeypatch):
    # one coordinate of a standard tag off by 1: its coordinates no longer
    # reassemble its matrix, so its coordinates and every bracket_check of
    # a standard pair with it raise; none returns a verdict
    exact = action.decompose_matrix

    def skewed(m):
        coords = exact(m)
        if m == GENERATOR_MATRICES[tag]:
            first = min(coords)
            coords[first] = coords[first] + ONE
        return coords

    other = next(t for t in STANDARD_BASIS if t != tag)
    monkeypatch.setattr(action, "decompose_matrix", skewed)
    action.standard_basis_coords.cache_clear()
    action._convenient_pairs.cache_clear()
    try:
        with pytest.raises(VerificationError, match=f"change of basis failed for {tag}"):
            standard_basis_coords(tag)
        for pair in ((tag, other), (other, tag)):
            with pytest.raises(VerificationError, match=f"failed for {tag}"):
                bracket_check(*pair, WignerIndex(1, 0, 0))
    finally:
        monkeypatch.undo()
        action.standard_basis_coords.cache_clear()
        action._convenient_pairs.cache_clear()
    assert bracket_check(tag, other, WignerIndex(1, 0, 0))


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


def test_all_56_pairs_hold_on_every_index_up_to_l_8():
    # the 28 convenient and 28 standard pairs on all 969 indices with l <= 8
    pairs = CONVENIENT_PAIRS + list(itertools.combinations(STANDARD_BASIS, 2))
    indices = [WignerIndex(l, m1, m2) for l in range(9)
               for m1 in range(-l, l + 1) for m2 in range(-l, l + 1)]
    assert len(pairs) * len(indices) == 54_264
    failed = [(pair, idx) for idx in indices for pair in pairs
              if not bracket_check(*pair, idx)]
    assert failed == []


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


@pytest.mark.parametrize("tag", ["Z1", "X1"])
def test_decompose_standard_basis_returns_a_new_vector(tag, fresh_bracket_caches):
    # a term added to either result, at lam or symbolic, reaches no later
    # call of either: both read the one cached symbolic action
    idx = WignerIndex(2, 1, 0)
    lam = (Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6))
    first = decompose_standard_basis(tag, idx, lam)
    want = dict(first.terms)
    first.add_term(WignerIndex(7, 0, 0), ONE)
    forms = compose_poly(tag, KTypeVector({idx: ONE}))
    want_forms = dict(forms.terms)
    forms.add_term(WignerIndex(7, 0, 0), LambdaForm(const=ONE))
    assert decompose_standard_basis(tag, idx, lam).terms == want
    assert compose_poly(tag, KTypeVector({idx: ONE})).terms == want_forms


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


@pytest.mark.parametrize("lam", [(1, -1, 0),
                                 (Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6))])
def test_decompose_standard_basis_is_exact_at_a_rational_lambda(lam):
    # the coefficient mode follows lam: at a rational triple every
    # coefficient is the RadicalScalar of the exact convenient-basis actions
    # combined with the coordinates of the standard generator
    for tag in STANDARD_BASIS:
        for l in range(4):
            for m1, m2 in itertools.product(range(-l, l + 1), repeat=2):
                idx = WignerIndex(l, m1, m2)
                want = KTypeVector()
                for t, c in standard_basis_coords(tag):
                    part = (KTypeVector({WignerIndex(l, m1, s): y for s, y
                                         in action._y_row(Y_TAGS[t], l, m2)})
                            if t in Y_TAGS else act_Z(Z_TAGS[t], idx, lam))
                    want = want + part.scaled(c)
                got = decompose_standard_basis(tag, idx, lam)
                assert all(isinstance(x, RadicalScalar) for _, x in got.items())
                assert got.terms == want.terms, (tag, idx)


def test_assemble_matrix_consistency():
    params = SeriesParams((0.5j, -0.5j, 0), (0, 0, 0))
    mat = assemble_matrix(params, "Z1", 4)
    pos = {lab: i for i, lab in enumerate(mat.labels)}
    dense = mat.dense()
    lab = BasisLabel(2, 2, 0)
    vec = act_Z_on_basis(1, lab, params)
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
    for i, lab in enumerate(mat.labels):
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
            vec = act_Z_on_basis(Z_TAGS[generator], lab, SeriesParams(lam, params.delta))
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


_ENTRY_PARTS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -2.5e-310, 1e307, -1e307)),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def sparse_blocks(draw):
    """A complex block, mostly +0, with signed zeros, subnormals, +-1e307
    and in some draws a NaN or an infinity between zero runs."""
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    block = np.zeros(shape, dtype=complex)
    size = block.size
    for i in draw(st.lists(st.integers(0, size - 1), max_size=size, unique=True)):
        block.flat[i] = complex(draw(_ENTRY_PARTS), draw(_ENTRY_PARTS))
    if size > 2 and draw(st.booleans()):
        bad = draw(st.sampled_from((float("nan"), float("inf"), float("-inf"))))
        part = draw(_ENTRY_PARTS)
        block.flat[draw(st.integers(1, size - 2))] = (
            complex(bad, part) if draw(st.booleans()) else complex(part, bad))
    return block


def _one_row(*entries):
    return np.array([entries], dtype=complex)


@given(sparse_blocks())
@settings(max_examples=300, deadline=None)
@example(_one_row(0j))
@example(_one_row(complex(-0.0, 0.0)))
@example(_one_row(complex(0.0, 5e-324)))
@example(_one_row(1e307 + 0j, 0j, 0j, complex(-0.0, -1e307)))
@example(_one_row(0j, 0j, 0j))
@example(_one_row(2.5 - 1j, 0j, complex(float("nan"), 0.0), 0j, 0j, 1j))
def test_entries_text_is_the_json_of_every_entry(block):
    want = json.dumps([[z.real, z.imag] for z in block.flatten()])[1:-1]
    assert action._entries_text(block) == want


@pytest.mark.parametrize("delta, lmax", [((1, 0, 0), 0), ((0, 1, 1), 3)],
                         ids=["no-label", "labels-from-l-1"])
def test_json_text_of_windows_without_l_0(delta, lmax):
    params = SeriesParams((0.3 + 0.1j, -0.2, -0.1 - 0.1j), delta)
    for gen in ("Z-2", "Z1", "Y2"):
        mat = assemble_matrix(params, gen, lmax)
        if lmax == 0:
            assert mat.labels == [] and mat.blocks == {}
        else:
            assert mat.labels[0].l == 1 and mat.blocks
        assert mat.json_text() == json.dumps(mat.to_json(), sort_keys=True)


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
