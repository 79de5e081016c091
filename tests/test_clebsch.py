"""Tests for the exact l' = 2 coupling coefficients.

Two independent oracles are written here in the test: a from-scratch
Racah-sum Clebsch-Gordan implementation, and the five closed forms with
big-integer factorials (`reference_q`).  The package computes q from
integer products of linear factors, so agreement with both is meaningful.
"""

import itertools
import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl3rep.clebsch import cg_product, in_range, q, q_core, q_float
from sl3rep.scalars import RadicalScalar
from sl3rep.wigner import EulerAngles, WignerIndex, wigner_D

from cg_identities import recurrence_holds, symmetry_holds


def reference_q(k, j, l, m):
    """q(k, j, l, m) from the five closed forms with big-integer factorials,
    square-extracted as one Fraction; exact zero outside the index set."""
    if not in_range(k, j, l, m):
        return RadicalScalar()
    f = factorial
    if j == -2:
        sign = -1 if k % 2 else 1
        rad = Fraction(6 * f(l - m) * f(l + m),
                       l * (l - 1) * (2 * l - 1) * (2 * l + 1)
                       * f(2 - k) * f(2 + k) * f(l - k - m - 2) * f(l + k + m - 2))
        return sign * RadicalScalar.sqrt_rational(rad)
    if j == -1:
        pre = (-1 if k % 2 else 1) * (k + l * k + 2 * m)
        rad = Fraction(3 * f(l - m) * f(l + m),
                       l * (l - 1) * (l + 1) * (2 * l + 1)
                       * f(2 - k) * f(2 + k) * f(l - k - m - 1) * f(l + k + m - 1))
        return pre * RadicalScalar.sqrt_rational(rad)
    if j == 0:
        pre = (-1 if k % 2 else 1) * (2 * l * l * (k * k - 1) + l * (5 * k * k + 6 * k * m - 2)
                                      + 3 * (k * k + 3 * k * m + 2 * m * m))
        rad = Fraction(f(l - m) * f(l + m),
                       l * (l + 1) * (2 * l - 1) * (2 * l + 3)
                       * f(2 - k) * f(2 + k) * f(l - k - m) * f(l + k + m))
        return pre * RadicalScalar.sqrt_rational(rad)
    if j == 1:
        pre = l * k - 2 * m
        rad = Fraction(3 * f(l - k - m + 1) * f(l + k + m + 1),
                       l * (l + 1) * (l + 2) * (2 * l + 1)
                       * f(2 - k) * f(2 + k) * f(l - m) * f(l + m))
        return pre * RadicalScalar.sqrt_rational(rad)
    rad = Fraction(6 * f(l - k - m + 2) * f(l + k + m + 2),
                   (l + 1) * (l + 2) * (2 * l + 1) * (2 * l + 3)
                   * f(2 - k) * f(2 + k) * f(l - m) * f(l + m))
    return RadicalScalar.sqrt_rational(rad)


def reference_cg(j1, m1, j2, m2, J, M):
    """Condon-Shortley Clebsch-Gordan coefficient via the Racah sum."""
    if m1 + m2 != M or J < abs(j1 - j2) or J > j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(M) > J:
        return 0.0
    pref = ((2 * J + 1)
            * factorial(J + j1 - j2) * factorial(J - j1 + j2)
            * factorial(j1 + j2 - J) / factorial(j1 + j2 + J + 1)
            * factorial(J + M) * factorial(J - M)
            * factorial(j1 - m1) * factorial(j1 + m1)
            * factorial(j2 - m2) * factorial(j2 + m2))
    total = 0.0
    for t in range(0, j1 + j2 - J + 1):
        denoms = (t, j1 + j2 - J - t, j1 - m1 - t, j2 + m2 - t,
                  J - j2 + m1 + t, J - j1 - m2 + t)
        if any(d < 0 for d in denoms):
            continue
        term = 1.0
        for d in denoms:
            term /= factorial(d)
        total += (-1) ** t * term
    return math.sqrt(pref) * total


def all_indices(lmax):
    for l in range(1, lmax + 1):
        for j in range(-2, 3):
            if l + j < abs(l - 2) or l + j < 0:
                continue
            for k in range(-2, 3):
                for m in range(-l, l + 1):
                    if abs(k + m) <= l + j:
                        yield k, j, l, m


def test_matches_reference_cg():
    for k, j, l, m in all_indices(7):
        assert q_float(k, j, l, m) == pytest.approx(
            reference_cg(2, k, l, m, l + j, k + m), abs=1e-12)


def test_out_of_range_is_exact_zero():
    assert not in_range(3, 0, 4, 0)
    assert q(0, -2, 1, 0).is_zero()      # triangle failure: l+j < |l-2|
    assert q(2, 0, 3, 2).is_zero()       # |k+m| > l+j
    assert q(0, 0, 5, 6).is_zero()       # |m| > l


def test_known_exact_value():
    # q(0, 0, 1, 1) = 1/sqrt(10)
    assert q(0, 0, 1, 1) == RadicalScalar({10: Fraction(1, 10)})
    # top coefficient of the stretched coupling is 1
    assert q(2, 2, 3, 3) == RadicalScalar.from_rational(1)


def test_column_orthogonality():
    # sum_k q(k,j,l,M-k) q(k,j',l,M-k) = delta_{j j'}, exactly
    l = 5
    for M in (-3, 0, 2):
        for j in range(-2, 3):
            for jp in range(j, 3):
                s = sum((q(k, j, l, M - k) * q(k, jp, l, M - k)
                         for k in range(-2, 3)), RadicalScalar())
                expected = 1 if j == jp else 0
                assert s == RadicalScalar.from_rational(expected)


def test_recurrence_exact():
    for l in range(1, 9):
        for j in range(-2, 3):
            for m in range(-l, l + 1):
                assert recurrence_holds(l, m, j)


def test_symmetry_exact():
    for k, j, l, m in all_indices(6):
        assert symmetry_holds(k, j, l, m)


def test_cg_product_pointwise():
    # D^2_{a,b}(k) D^l_{m1,m2}(k) = sum of the expansion, at a generic angle
    ang = EulerAngles(0.9, 1.3, 4.1)
    for idx2, idx in [(WignerIndex(2, 1, -1), WignerIndex(3, 2, 0)),
                      (WignerIndex(2, 0, 2), WignerIndex(4, -3, 1)),
                      (WignerIndex(2, -2, 0), WignerIndex(1, 1, 1))]:
        lhs = wigner_D(idx2, ang) * wigner_D(idx, ang)
        rhs = sum(complex(c) * wigner_D(t, ang)
                  for t, c in cg_product(idx2, idx).items())
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_cg_product_rejects_wrong_degree():
    with pytest.raises(ValueError):
        cg_product(WignerIndex(1, 0, 0), WignerIndex(3, 0, 0))


def test_coefficient_cache_is_bounded():
    assert q.cache_info().maxsize == q_core.cache_info().maxsize == 1 << 16


def coupling_indices(lmax):
    """Every (k, j, l, m) with |k|, |j| <= 2, l <= lmax and |m| <= l, the
    indices outside the triangle or range rule included."""
    for l in range(lmax + 1):
        for k, j, m in itertools.product(range(-2, 3), range(-2, 3), range(-l, l + 1)):
            yield k, j, l, m


def test_q_equals_the_factorial_closed_forms():
    count = 0
    for k, j, l, m in coupling_indices(40):
        assert q(k, j, l, m) == reference_q(k, j, l, m), (k, j, l, m)
        count += 1
    assert count == 42_025


def test_q_float_is_bitwise_the_float_of_q():
    # num / den * sqrt(rad): int true division is correctly rounded, as
    # Fraction.__float__ is, so no last-bit difference may appear
    for k, j, l, m in coupling_indices(40):
        assert q_float(k, j, l, m).hex() == float(reference_q(k, j, l, m)).hex()


@st.composite
def large_indices(draw):
    l = draw(st.integers(0, 2000))
    return (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)), l,
            draw(st.integers(-l, l)))


@given(large_indices())
@settings(max_examples=200, deadline=None)
def test_q_equals_the_closed_forms_up_to_l_2000(index):
    assert q(*index) == reference_q(*index)


@pytest.mark.parametrize("l", [10 ** 5, 2 * 10 ** 5])
def test_identities_hold_at_large_l(l):
    # independent of the closed form; each coefficient took seconds when q
    # was built from factorials
    for j in range(-2, 3):
        for m in (-l, -l + 3, -1, 0, 7, l - 2, l):
            assert recurrence_holds(l, m, j), (l, m, j)
    for k, j in itertools.product(range(-2, 3), range(-2, 3)):
        for m in (-l + 2, 0, 5, l - 3):
            assert symmetry_holds(k, j, l, m), (k, j, l, m)
