"""Tests for principal-series parameters, basis enumeration, and Iwasawa."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3rep.kernel import act_Z
from sl3rep.scalars import LambdaForm, check_lambda
from sl3rep.series import (BasisLabel, GroupElement, SeriesParams, basis,
                           character, extend_wigner, iwasawa, label_sign,
                           label_valid, multiplicity)
from sl3rep.wigner import EulerAngles, WignerIndex, wigner_D

DELTAS = [(d1, d2, d3) for d1 in (0, 1) for d2 in (0, 1) for d3 in (0, 1)]


def test_params_validation():
    SeriesParams((Fraction(1, 2), Fraction(1, 2), -1), (0, 0, 0))
    with pytest.raises(ValueError):
        SeriesParams((1, 1, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        SeriesParams((0.1, 0.2, -0.25), (0, 0, 0))
    with pytest.raises(ValueError):
        SeriesParams((0, 0, 0), (0, 2, 0))
    # a parity tuple of the wrong length: label_sign read past its end, or
    # a fourth entry was ignored
    for delta in [(0, 1), (1, 0, 1, 1)]:
        with pytest.raises(ValueError, match="three entries"):
            SeriesParams((0, 0, 0), delta)
    with pytest.raises(ValueError):  # a NaN sum passes no zero-sum check
        SeriesParams((math.nan, 0.0, 0.0), (0, 0, 0))
    assert SeriesParams((1, 2, -3), (0, 0, 0)).exact
    assert not SeriesParams((0.5j, -0.5j, 0), (0, 0, 0)).exact


@pytest.mark.parametrize("lam", [(0.1, -0.1), (Fraction(1, 2), Fraction(-1, 2)),
                                 (0.1, -0.1, 0.0, 0.0), (1, -1, 0, 0), None, 5],
                         ids=["float-pair", "rational-pair", "float-quadruple",
                              "int-quadruple", "none", "int"])
def test_one_lambda_check_refuses_pairs_and_quadruples(lam):
    # every entry point reads the one check of sl3rep.scalars, message and all
    calls = [
        lambda: check_lambda(lam),
        lambda: SeriesParams(lam, (0, 0, 0)),
        lambda: character(lam, (1.2, 0.9, 1 / (1.2 * 0.9))),
        lambda: LambdaForm(c1=1).eval(lam),
        lambda: LambdaForm(c1=1).eval_exact(lam),
        lambda: act_Z(1, WignerIndex(2, 1, 0), lam),
    ]
    for call in calls:
        with pytest.raises(ValueError,
                           match="spectral parameter must be a triple summing to zero"):
            call()


def test_one_lambda_check_keeps_the_type_of_lam():
    assert check_lambda((1, Fraction(-1, 2), Fraction(-1, 2))) == \
        (1, Fraction(-1, 2), Fraction(-1, 2))
    assert check_lambda((1, -1, 0.0)) == (1 + 0j, -1 + 0j, 0j)
    with pytest.raises(ValueError):  # exact for rationals: no tolerance
        check_lambda((Fraction(1, 10 ** 15), 0, 0))
    check_lambda((1e-13, 0.0, 0.0))  # within 1e-12 otherwise


@pytest.mark.parametrize("delta", DELTAS)
def test_basis_matches_multiplicity(delta):
    params = SeriesParams((0, 0, 0), delta)
    for l in range(0, 12):
        labels = basis(params, l)
        assert len(labels) == multiplicity(delta, l) * (2 * l + 1)
        assert all(label_valid(delta, lab) for lab in labels)
        assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("delta", DELTAS)
def test_multiplicity_generating_pattern(delta):
    # multiplicities grow by exactly one every two steps in l, and the
    # delta-sum over a fixed l covers the (m1, fold-sign) pairs twice
    for l in range(0, 20):
        assert multiplicity(delta, l + 2) == multiplicity(delta, l) + 1
    for l in range(0, 8):
        assert sum(multiplicity(d, l) for d in DELTAS) == 2 * (2 * l + 1)


def test_label_sign_and_zero_row():
    # m1 = 0 labels exist only when the fold sign is +1
    assert label_sign((1, 0, 1), 4) == 1
    assert not label_valid((1, 0, 0), BasisLabel(0, 0, 0))
    assert label_valid((0, 0, 0), BasisLabel(0, 0, 0))


MATS = st.lists(st.floats(-2, 2), min_size=9, max_size=9).map(
    lambda v: np.array(v).reshape(3, 3))


@given(MATS)
@settings(max_examples=50, deadline=None)
def test_iwasawa_round_trip(m):
    if abs(np.linalg.det(m)) < 0.1:
        return
    g = m / np.sign(np.linalg.det(m)) / abs(np.linalg.det(m)) ** (1 / 3)
    n, a, k = iwasawa(g)
    assert np.abs(n @ a @ k - g).max() < 1e-9
    assert np.abs(np.tril(n, -1)).max() < 1e-9 and np.allclose(np.diag(n), 1)
    assert np.diag(a).min() > 0
    assert abs(np.prod(np.diag(a)) - 1) < 1e-9
    assert np.abs(k @ k.T - np.eye(3)).max() < 1e-9


def test_iwasawa_rejects_bad_input():
    with pytest.raises(ValueError):
        iwasawa(np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        iwasawa(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="square"):
        iwasawa(np.eye(3)[:2])


def test_from_nak_coordinates():
    g = GroupElement.from_nak((0.3, -0.1, 0.7), (1.4, 0.8),
                              EulerAngles(0.5, 1.1, 2.2))
    a, b, c = g.diag
    assert a / b == pytest.approx(1.4)   # y1 = a/b
    assert b / c == pytest.approx(0.8)   # y2 = b/c
    assert g.n[0, 1] == pytest.approx(0.3)
    assert g.n[1, 2] == pytest.approx(-0.1)
    assert g.n[0, 2] == pytest.approx(0.7)


def test_character_homogeneity():
    lam = (0.3 + 0.2j, -0.1, -0.2 - 0.2j)
    d1 = (1.2, 0.9, 1 / (1.2 * 0.9))
    d2 = (2.0, 0.5, 1.0)
    prod = tuple(x * y for x, y in zip(d1, d2))
    assert character(lam, prod) == pytest.approx(
        character(lam, d1) * character(lam, d2))


def test_extension_is_left_n_a_equivariant():
    # f(n a g) = chi(a) f(g) for the extended Wigner function
    lam = (0.4j, 0.25, -0.25 - 0.4j)
    idx = WignerIndex(2, 1, -1)
    g = GroupElement.from_nak((0.2, 0.4, -0.3), (1.1, 0.7),
                              EulerAngles(1.0, 0.8, 0.3))
    n = np.array([[1, 0.5, -0.2], [0, 1, 0.9], [0, 0, 1.0]])
    a = np.diag([1.3, 0.8, 1 / (1.3 * 0.8)])
    lhs = extend_wigner(lam, idx, GroupElement(n @ a @ g.g))
    rhs = character(lam, np.diag(a)) * extend_wigner(lam, idx, g)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def basis_function(delta, label):
    """The function on K of a basis label: v_{l,m1,m2} restricted to K."""
    l, m1, m2 = label
    sign = label_sign(delta, l)
    return lambda angles: (wigner_D(WignerIndex(l, m1, m2), angles)
                           + sign * wigner_D(WignerIndex(l, -m1, m2), angles))


def parity_check(f, delta, rng, samples):
    """Sample the two parity identities a principal-series restriction obeys."""
    rng = np.random.default_rng(rng)
    s1 = -1 if (delta[0] + delta[1]) % 2 else 1
    s2 = -1 if (delta[1] + delta[2]) % 2 else 1
    for _ in range(samples):
        a = rng.uniform(0, 2 * math.pi)
        b = rng.uniform(0, math.pi)
        g = rng.uniform(0, 2 * math.pi)
        v = f(EulerAngles(a, b, g))
        if abs(v - s1 * f(EulerAngles(a + math.pi, b, g))) > 1e-9:
            return False
        if abs(v - s2 * f(EulerAngles(math.pi - a, math.pi - b, math.pi + g))) > 1e-9:
            return False
    return True


@pytest.mark.parametrize("delta", [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)])
def test_basis_functions_satisfy_parity(delta):
    params = SeriesParams((0, 0, 0), delta)
    for l in range(0, 4):
        for lab in basis(params, l)[:3]:
            f = basis_function(delta, lab)
            assert parity_check(f, delta, rng=7, samples=25)


def test_parity_check_rejects_wrong_class():
    # a (0,0,0) basis function fails the (1,1,0) parity identities
    f = basis_function((0, 0, 0), BasisLabel(2, 0, 1))
    assert not parity_check(f, (1, 1, 0), rng=7, samples=25)
